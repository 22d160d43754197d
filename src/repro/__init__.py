"""repro — Application-Bypass Reduction for Large-Scale Clusters.

Simulation-based reproduction of Wagner, Buntinas, Brightwell & Panda
(IEEE CLUSTER 2003): an MPICH-over-GM stack in which ``MPI_Reduce`` can make
progress without the application blocking, evaluated under process skew.

Quickstart::

    import numpy as np
    from repro import paper_cluster, run_program, MpiBuild, SUM

    def program(mpi):
        data = np.full(4, float(mpi.rank + 1))
        result = yield from mpi.reduce(data, op=SUM, root=0)
        return None if result is None else result.sum()

    out = run_program(paper_cluster(8), program, build=MpiBuild.AB)
    print(out.results[0])   # root's reduced value

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-figure reproductions.
"""

from .config import (AbParams, ClusterConfig, FaultParams, MachineSpec,
                     NetParams, NicParams, NoiseParams, NO_NOISE, MpiParams,
                     homogeneous_cluster, interlaced_roster, paper_cluster,
                     quiet_cluster)
from .errors import (AbProtocolError, ConfigError, DeadlockError, GmError,
                     MpiError, ProcessFailed, ReproError, SimulationError)
from .mpich import (MAX, MIN, PROD, SUM, Communicator, MpiBuild, MpiRank, Op,
                    user_op, world_communicator)
from .runtime import ProgramResult, build_cluster, run_program

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "ClusterConfig", "MachineSpec", "NicParams", "NetParams", "MpiParams",
    "AbParams", "NoiseParams", "NO_NOISE", "FaultParams",
    "paper_cluster", "homogeneous_cluster", "quiet_cluster",
    "interlaced_roster",
    # runtime
    "run_program", "build_cluster", "ProgramResult",
    # MPI surface
    "MpiRank", "MpiBuild", "Communicator", "world_communicator",
    "Op", "SUM", "PROD", "MIN", "MAX", "user_op",
    # errors
    "ReproError", "SimulationError", "DeadlockError", "ProcessFailed",
    "ConfigError", "MpiError", "GmError", "AbProtocolError",
]
