"""SPMD program launcher.

:func:`run_program` is the top-level entry point most users (and all of the
examples and benchmarks) go through: build a cluster from a config, spawn
one rank process per node running the supplied program generator, drive the
simulation to completion and hand back per-rank results plus the cluster for
post-mortem inspection (CPU accounting, NIC stats, traces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Union

from ..cluster.cluster import Cluster
from ..config import ClusterConfig
from ..mpich.communicator import world_communicator
from ..mpich.rank import MpiBuild, MpiRank
from ..sim.trace import Tracer

RankProgram = Callable[[MpiRank], Generator]


@dataclass
class ProgramResult:
    """Everything a finished run exposes."""

    cluster: Cluster
    contexts: list[MpiRank]
    results: list[Any]
    finished_at: float

    def sim_counters(self) -> dict[str, int]:
        """Event/op/process counts for this run (see Simulator.counters)."""
        return self.cluster.sim.counters()

    def cpu_usage(self, rank: int) -> dict[str, float]:
        """Per-category CPU time accounted on ``rank`` (a copy)."""
        return dict(self.cluster.nodes[rank].cpu.usage)


def build_cluster(config: ClusterConfig,
                  tracer: Optional[Tracer] = None) -> Cluster:
    """Instantiate a cluster (exposed separately for multi-phase drivers)."""
    return Cluster(config, tracer)


def run_program(config_or_cluster: Union[ClusterConfig, Cluster],
                program: RankProgram, *,
                build: MpiBuild = MpiBuild.DEFAULT,
                tracer: Optional[Tracer] = None,
                name: str = "rank") -> ProgramResult:
    """Run ``program`` as one process per node; returns a ProgramResult.

    ``program`` is called once per rank with that rank's
    :class:`~repro.mpich.rank.MpiRank` and must return a generator (the
    rank's main).
    """
    if isinstance(config_or_cluster, Cluster):
        cluster = config_or_cluster
    else:
        cluster = Cluster(config_or_cluster, tracer)
    world = world_communicator(cluster.size)
    contexts = [MpiRank(node, world, build) for node in cluster.nodes]
    processes = [
        cluster.sim.spawn(program(ctx), name=f"{name}{ctx.rank}",
                          cpu=ctx.node.cpu)
        for ctx in contexts
    ]
    cluster.sim.run()
    monitor = cluster.monitor
    if monitor is not None:
        # End-of-run protocol invariants: queues drained, signals idle,
        # copy accounting consistent (repro.analysis.invariants).
        monitor.finalize()
    return ProgramResult(
        cluster=cluster,
        contexts=contexts,
        results=[p.result for p in processes],
        finished_at=cluster.sim.now,
    )
