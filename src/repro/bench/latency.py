"""The latency microbenchmark (paper Sec. VI, second benchmark).

Protocol, verbatim from the paper:

1. measure the one-way message latency between the root and the node
   *furthest from the root in the logical tree* (the "last node"), via a
   ping-pong;
2. run a series of barrier-separated reductions.  Timing starts just before
   the last node begins the reduction; when the root completes, it sends a
   notification message to the last node, which stops timing and subtracts
   the one-way notification latency.

There is no injected skew; natural noise (per the cluster's NoiseParams)
still applies, which is what makes the application-bypass build pay signal
overhead as the node count grows (paper Fig. 9 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ClusterConfig
from ..mpich.message import TAG_NOTIFY
from ..mpich.operations import SUM
from ..mpich.rank import MpiBuild
from ..runtime.program import run_program
from .skew import SkewModel
from .stats import BenchResult, SampleSummary, summarize


@dataclass
class LatencyResult(BenchResult):
    """Output of one latency benchmark run."""

    BENCH_METRICS = ("avg_latency_us", "median_latency_us", "one_way_us",
                     "signals")

    build: MpiBuild
    size: int
    elements: int
    iterations: int
    avg_latency_us: float
    median_latency_us: float
    one_way_us: float
    last_node: int
    samples: np.ndarray
    signals: int
    #: Dispersion summary over the per-iteration latency samples.
    summary: "SampleSummary" = None
    #: Full ``Simulator.counters()`` snapshot of the measured run (the
    #: ping-pong calibration excluded), including the fabric's per-hop
    #: network counters.
    sim_counters: dict = field(default_factory=dict)


def measure_one_way(config: ClusterConfig, peer_a: int, peer_b: int,
                    *, pingpongs: int = 50) -> float:
    """Half the average ping-pong round trip between two nodes."""
    token = np.zeros(1, dtype=np.float64)

    def program(mpi):
        buf = np.empty(1, dtype=np.float64)
        if mpi.rank == peer_a:
            t0 = mpi.now
            for _ in range(pingpongs):
                yield from mpi.send(token, peer_b, tag=TAG_NOTIFY)
                yield from mpi.recv(buf, peer_b, tag=TAG_NOTIFY)
            return (mpi.now - t0) / (2.0 * pingpongs)
        if mpi.rank == peer_b:
            for _ in range(pingpongs):
                yield from mpi.recv(buf, peer_a, tag=TAG_NOTIFY)
                yield from mpi.send(token, peer_a, tag=TAG_NOTIFY)
        return None

    out = run_program(config, program, build=MpiBuild.DEFAULT)
    return float(out.results[peer_a])


def latency_benchmark(config: ClusterConfig, build: MpiBuild, *,
                      elements: int = 1, iterations: int = 200,
                      warmup: int = 3) -> LatencyResult:
    """Run the paper's reduction-latency microbenchmark on ``config``
    (reductions are rooted at rank 0)."""
    size = config.size
    if size < 2:
        raise ValueError("latency benchmark needs at least two nodes")
    from ..schedule.table import config_tree_shape
    shape = config_tree_shape(config, elements * np.dtype(np.float64).itemsize)
    root = 0
    last = shape.deepest_rel(size)

    one_way = measure_one_way(config, root, last)
    total_iters = warmup + iterations
    token = np.zeros(1, dtype=np.float64)

    def program(mpi):
        skew_model = SkewModel(mpi.node.rng, config.noise, 0.0)
        rank = mpi.rank
        data = np.full(elements, float(rank + 1), dtype=np.float64)
        buf = np.empty(1, dtype=np.float64)
        samples: list[float] = []
        for it in range(total_iters):
            yield from mpi.barrier()
            noise = skew_model.noise_delay(rank, it)
            yield from mpi.compute(noise)
            t0 = mpi.now
            yield from mpi.reduce(data, op=SUM, root=root)
            if rank == root:
                yield from mpi.send(token, last, tag=TAG_NOTIFY)
            if rank == last:
                yield from mpi.recv(buf, root, tag=TAG_NOTIFY)
                if it >= warmup:
                    samples.append((mpi.now - t0) - one_way)
        return samples if rank == last else None

    out = run_program(config, program, build=build)
    samples = np.asarray(out.results[last], dtype=np.float64)
    return LatencyResult(
        build=build,
        size=size,
        elements=elements,
        iterations=iterations,
        avg_latency_us=float(samples.mean()),
        median_latency_us=float(np.median(samples)),
        one_way_us=one_way,
        last_node=last,
        samples=samples,
        signals=out.cluster.total_signals(),
        summary=summarize(samples),
        sim_counters=dict(out.sim_counters()),
    )
