"""Application-facing per-rank context.

An :class:`MpiContext` is what a rank program receives: rank/size sugar, the
MPI operations (delegating to :class:`repro.mpich.rank.MpiRank`), and the
application-side primitives the paper's microbenchmarks need — interruptible
busy-loop compute (which NIC signals may preempt) and access to the virtual
clock.

Rank programs are generators::

    def program(mpi):
        yield from mpi.barrier()
        data = np.full(4, float(mpi.rank))
        result = yield from mpi.reduce(data, op=SUM, root=0)
        yield from mpi.compute(250.0)   # overlap-able application work
        return result
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..core.engine import AbEngine
from ..mpich.communicator import Communicator
from ..mpich.operations import SUM, Op
from ..mpich.rank import MpiBuild, MpiRank
from ..sim.process import Compute


class MpiContext:
    """One rank's application handle."""

    def __init__(self, node, comm_world: Communicator, build: MpiBuild):
        self.node = node
        self.sim = node.sim
        self.comm_world = comm_world
        self.build = build
        self.mpi = MpiRank(node, comm_world, build)
        self.ab_engine: Optional[AbEngine] = None
        if build is MpiBuild.AB:
            self.ab_engine = AbEngine(self.mpi)
            self.mpi.install_ab(self.ab_engine)

    # -- identity ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.node.id

    @property
    def size(self) -> int:
        return self.comm_world.size

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self.sim.now

    def rng_stream(self, purpose: str) -> np.random.Generator:
        """Deterministic per-rank random stream.

        Seeded from the cluster seed and ``(purpose, rank)`` via
        :class:`~repro.sim.random.RngStreams`, so application-level
        randomness is reproducible and isolated — adding a new consumer
        never perturbs existing streams.
        """
        return self.node.rng.node_stream(purpose, self.rank)

    # -- application compute ------------------------------------------------
    def compute(self, duration_us: float, category: str = "app") -> Generator:
        """Interruptible application busy-loop (paper's delay loops).

        NIC signals preempt it; the asynchronous reduction work then extends
        the loop's wall-clock span by exactly its CPU cost, which is how the
        paper's measurement methodology captures bypassed processing.
        """
        if duration_us > 0.0:
            yield Compute(duration_us, category)

    # -- MPI operations ------------------------------------------------------
    # Pure pass-throughs hand back the library's generator itself: one
    # frame fewer on every resume of the rank program than re-yielding it.
    def send(self, data, dest: int, tag: int = 0, comm=None) -> Generator:
        return self.mpi.send(np.asarray(data), dest, tag, comm)

    def recv(self, buffer, source: int, tag: int = -1, comm=None) -> Generator:
        return self.mpi.recv(buffer, source, tag, comm)

    def isend(self, data, dest: int, tag: int = 0, comm=None) -> Generator:
        return self.mpi.isend(np.asarray(data), dest, tag, comm)

    def irecv(self, buffer, source: int, tag: int = -1, comm=None) -> Generator:
        return self.mpi.irecv(buffer, source, tag, comm)

    def wait(self, request) -> Generator:
        return self.mpi.wait(request)

    def reduce(self, sendbuf, op: Op = SUM, root: int = 0, comm=None,
               recvbuf=None) -> Generator:
        return self.mpi.reduce(np.asarray(sendbuf), op, root, comm, recvbuf)

    def bcast(self, data, root: int = 0, comm=None, count=None,
              dtype=None) -> Generator:
        return self.mpi.bcast(data, root, comm, count=count, dtype=dtype)

    def barrier(self, comm=None) -> Generator:
        return self.mpi.barrier(comm)

    def allreduce(self, sendbuf, op: Op = SUM, comm=None) -> Generator:
        return self.mpi.allreduce(np.asarray(sendbuf), op, comm)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiContext rank={self.rank}/{self.size} {self.build.value}>"
