"""Makespan benchmark for allreduce under process-arrival patterns.

The measurement PAP-aware algorithms are designed to win: every rank
leaves a barrier together, spends its per-(rank, iteration) arrival
delay from the workload trace in application compute, then enters the
allreduce; the *makespan* of one iteration is the time from barrier exit
until the **last** rank holds the result.  When arrivals are balanced
the collective dominates and application-bypass (``ab``) wins; when one
straggler dominates, schedules that put late arrivals near the root
(SRA) or pre-reduce the early arrivals (PRA) overlap almost all
reduction work with the straggler's delay.

Algorithms:

``nab`` / ``ab`` / ``pipelined``
    The legacy engine paths (host-level tree, application-bypass,
    Träff-style pipelined overlap — the latter needs an armed
    :class:`~repro.config.PipelineParams`).
``sra`` / ``pra``
    Proficz's PAP-aware variants, lowered per iteration from the arrival
    oracle (``allreduce.pap_sorted`` / ``allreduce.pap_prereduced``) and
    executed through the schedule interpreter.  Schedules are memoised
    by arrival order, validated once each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ClusterConfig, check_name
from ..mpich.operations import SUM
from ..mpich.rank import MpiBuild
from ..runtime.program import build_cluster, run_program
from ..schedule.lower import lower
from ..schedule.table import config_tree_shape
from .skew import arrival_spread_stats, conservative_latency_estimate
from .stats import BenchResult

#: Algorithm tag -> MpiBuild for the run.  The schedule-driven variants
#: execute host-level reduce steps, i.e. the nab engine underneath.
PAP_ALGOS = {
    "nab": MpiBuild.DEFAULT,
    "ab": MpiBuild.AB,
    "pipelined": MpiBuild.AB,
    "sra": MpiBuild.DEFAULT,
    "pra": MpiBuild.DEFAULT,
}

#: Algorithm tag -> lowering name for the schedule-driven variants.
_PAP_LOWERINGS = {
    "sra": "allreduce.pap_sorted",
    "pra": "allreduce.pap_prereduced",
}


@dataclass
class PapResult(BenchResult):
    """Output of one PAP allreduce benchmark run."""

    BENCH_METRICS = ("avg_makespan_us", "median_makespan_us", "signals")

    pattern: str
    #: Mean/median over iterations of (last rank done) - (barrier exit).
    avg_makespan_us: float
    median_makespan_us: float
    samples: np.ndarray
    #: Arrival-spread statistics + kappa for the trace driving this run
    #: (empty when the workload is disarmed) — the skew.py bridge.
    arrival_stats: dict = field(default_factory=dict)
    signals: int = 0
    sim_counters: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        # Spread stats + kappa describe the trace, not the algorithm —
        # still per-point so every BENCH row is self-contained.
        return {**super().metrics(), **self.arrival_stats}


def pap_benchmark(config: ClusterConfig, *, algo: str, elements: int = 256,
                  iterations: int = 10, warmup: int = 2) -> PapResult:
    """Measure allreduce makespan under ``config.workload`` with ``algo``."""
    check_name("PAP algorithm", algo, PAP_ALGOS)
    build = PAP_ALGOS[algo]
    size = config.size
    if size < 2:
        raise ValueError("the PAP benchmark needs at least two nodes")
    if iterations < 1:
        raise ValueError("need at least one measured iteration")
    if algo == "pipelined" and not config.pipeline.armed:
        raise ValueError("algo='pipelined' needs an armed PipelineParams")
    if algo in _PAP_LOWERINGS and config.pipeline.armed:
        raise ValueError(
            "the PAP schedule variants execute whole-message; disarm "
            "PipelineParams for algo=%r" % (algo,))
    total_iters = warmup + iterations
    nbytes = elements * np.dtype(np.float64).itemsize
    shape = config_tree_shape(config, nbytes)

    cluster = build_cluster(config)
    workload = cluster.workload          # None when disarmed
    trace = None
    if workload is not None:
        trace = workload.prepare(
            total_iters,
            reference_us=conservative_latency_estimate(
                size, elements, shape=shape))

    # One validated schedule per distinct arrival order (identity when the
    # workload is disarmed) for the schedule-driven variants.
    schedules = None
    if algo in _PAP_LOWERINGS:
        memo: dict = {}
        schedules = []
        for it in range(total_iters):
            order = (tuple(range(size)) if trace is None
                     else trace.order(it))
            sched = memo.get(order)
            if sched is None:
                sched = lower(_PAP_LOWERINGS[algo], shape, size,
                              order=order).validate()
                memo[order] = sched
            schedules.append(sched)

    expected = float(size * (size + 1) / 2)

    def program(mpi):
        from ..core.interpreter import execute_schedule
        rank = mpi.rank
        data = np.full(elements, float(rank + 1), dtype=np.float64)
        starts: list[float] = []
        dones: list[float] = []
        for it in range(total_iters):
            yield from mpi.barrier()
            t0 = mpi.now
            arrival = 0.0 if workload is None else workload.charge(rank, it)
            yield from mpi.compute(arrival)
            if schedules is not None:
                result = yield from execute_schedule(
                    mpi, schedules[it], data, SUM,
                    comm=mpi.comm_world)
            else:
                result = yield from mpi.allreduce(data, op=SUM)
            if not np.allclose(result, expected):
                raise AssertionError(
                    f"iteration {it}: rank {rank} got {result.flat[0]}, "
                    f"expected {expected}")
            if it >= warmup:
                starts.append(t0)
                dones.append(mpi.now)
        return starts, dones

    out = run_program(cluster, program, build=build)
    starts = np.array([r[0] for r in out.results])   # (size, iterations)
    dones = np.array([r[1] for r in out.results])
    samples = dones.max(axis=0) - starts.min(axis=0)
    return PapResult(
        pattern=config.workload.pattern,
        avg_makespan_us=float(samples.mean()),
        median_makespan_us=float(np.median(samples)),
        samples=samples,
        arrival_stats=arrival_spread_stats(trace, size, elements,
                                           shape=shape),
        signals=out.cluster.total_signals(),
        sim_counters=dict(out.sim_counters()),
    )
