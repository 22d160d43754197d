"""The CPU-utilization microbenchmark (paper Sec. VI, first benchmark).

Per iteration, on every node::

    barrier
    t0 = now
    busy-loop( injected skew  +  natural noise )   # interruptible
    MPI_Reduce
    busy-loop( catch-up delay )                    # interruptible
    t1 = now
    sample = (t1 - t0) - injected skew - catch-up delay

The catch-up delay equals the maximum skew plus a conservative estimate of
the reduction latency, guaranteeing that all asynchronous processing for
this iteration lands *inside* the timed window — where, because the delays
run as interruptible busy loops, signal handlers extend the elapsed time by
exactly their CPU cost and are therefore captured by the subtraction.

Natural noise is deliberately **not** subtracted (a real benchmark cannot
know when the OS preempted it); it affects both builds identically.

In addition to the paper's protocol we snapshot the simulator's direct CPU
accounting at t0/t1 and report the same average from that second, completely
independent bookkeeping path.  ``tests/integration`` asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

import numpy as np

from ..config import ClusterConfig
from ..mpich.operations import SUM
from ..mpich.rank import MpiBuild
from ..runtime.program import build_cluster, run_program
from .skew import SkewModel, conservative_latency_estimate
from .stats import BenchResult, SampleSummary, summarize

#: CPU categories that are *application* time, excluded from the direct
#: accounting cross-check (everything else is reduction/progress work).
APP_CATEGORIES = ("app",)


@dataclass
class CpuUtilResult(BenchResult):
    """Output of one CPU-utilization benchmark run."""

    BENCH_METRICS = ("avg_util_us", "direct_avg_util_us", "signals")

    build: MpiBuild
    size: int
    elements: int
    max_skew_us: float
    iterations: int
    #: The paper's metric: mean over iterations of the per-iteration mean
    #: across nodes, via the subtraction protocol.
    avg_util_us: float
    #: Same metric from the engine's direct per-category accounting.
    direct_avg_util_us: float
    #: Per-node means (length == size).
    per_node_util_us: np.ndarray
    #: Total NIC signals raised during the measured iterations.
    signals: int
    #: Mean reduction result correctness check (root side).
    checked_reductions: int
    #: Dispersion summary over the per-iteration cluster means.
    summary: Optional[SampleSummary] = None
    #: Full ``Simulator.counters()`` snapshot: events popped / driver ops
    #: plus the fabric's per-hop network counters (hot-spot data for
    #: BENCH_*.json).
    sim_counters: dict = field(default_factory=dict)


def mpi_reduce(mpi) -> Callable[[np.ndarray], Generator]:
    """The collective the paper measures: ``MPI_Reduce(SUM)`` to rank 0."""
    return lambda data: mpi.reduce(data, SUM, 0)


def cpu_util_benchmark(config: ClusterConfig, build: MpiBuild, *,
                       elements: int = 4, max_skew_us: float = 0.0,
                       iterations: int = 100, warmup: int = 3,
                       catchup_us: Optional[float] = None,
                       collective=mpi_reduce) -> CpuUtilResult:
    """Run the paper's CPU-utilization microbenchmark on ``config``.

    ``collective`` is the reduction under test: called once per rank with
    its ``mpi``, it returns ``data -> generator`` (the root's generator
    returns the reduced array).
    """
    if iterations < 1:
        raise ValueError("need at least one measured iteration")
    size = config.size
    total_iters = warmup + iterations
    if catchup_us is None:
        from ..schedule.table import config_tree_shape
        shape = config_tree_shape(
            config, elements * np.dtype(np.float64).itemsize)
        catchup_us = max_skew_us + conservative_latency_estimate(
            size, elements, shape=shape)

    # Sum of (rank + 1): integers, exact in float64, so compared exactly.
    expected = np.full(elements, size * (size + 1) / 2)
    check_counts = [0]

    # Armed PAP workload: pre-build the cluster so the trace exists before
    # any rank runs, and widen the catch-up window by the worst arrival
    # spread so late arrivals still land inside the timed interval.  A
    # disarmed config takes the config path into run_program unchanged.
    cluster = None
    workload = None
    if config.workload.armed:
        cluster = build_cluster(config)
        workload = cluster.workload
        trace = workload.prepare(
            total_iters,
            reference_us=conservative_latency_estimate(size, elements))
        catchup_us += max(trace.spread(it) for it in range(trace.iterations))

    def program(mpi):
        reduce = collective(mpi)
        skew_model = SkewModel(mpi.node.rng, config.noise, max_skew_us)
        rank = mpi.rank
        data = np.full(elements, float(rank + 1), dtype=np.float64)
        samples: list[float] = []
        direct: list[float] = []
        cpu = mpi.node.cpu
        for it in range(total_iters):
            yield from mpi.barrier()
            t0 = mpi.now
            d0 = cpu.total_usage(exclude=APP_CATEGORIES)
            skew = skew_model.skew_delay(rank, it)
            noise = skew_model.noise_delay(rank, it)
            arrival = 0.0 if workload is None else workload.charge(rank, it)
            yield from mpi.compute(skew + noise + arrival)
            result = yield from reduce(data)
            if rank == 0:
                if not np.array_equal(result, expected):
                    raise AssertionError(
                        f"iteration {it}: root got {result[0]}, "
                        f"expected {expected[0]}")
                check_counts[0] += 1
            yield from mpi.compute(catchup_us)
            t1 = mpi.now
            d1 = cpu.total_usage(exclude=APP_CATEGORIES)
            if it >= warmup:
                samples.append((t1 - t0) - skew - arrival - catchup_us)
                direct.append(d1 - d0)
        return samples, direct

    result = run_program(cluster if cluster is not None else config,
                         program, build=build)

    paper_matrix = np.array([r[0] for r in result.results])   # (size, iters)
    direct_matrix = np.array([r[1] for r in result.results])
    signals = result.cluster.total_signals()
    return CpuUtilResult(
        build=build,
        size=size,
        elements=elements,
        max_skew_us=max_skew_us,
        iterations=iterations,
        avg_util_us=float(paper_matrix.mean()),
        direct_avg_util_us=float(direct_matrix.mean()),
        per_node_util_us=paper_matrix.mean(axis=1),
        signals=signals,
        checked_reductions=check_counts[0],
        summary=summarize(paper_matrix.mean(axis=0)),
        sim_counters=dict(result.sim_counters()),
    )
