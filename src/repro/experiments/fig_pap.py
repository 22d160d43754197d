"""fig_pap — allreduce under process-arrival patterns (repro.workload).

Beyond the paper: the reproduction's ab/nab engines finally meet
algorithms *designed* for imbalanced arrivals — Proficz's sorted-arrival
(SRA) and pre-reduced (PRA) PAP-aware allreduce variants
(arXiv:1804.05349), lowered from the workload layer's arrival oracle and
executed through the schedule interpreter.  The sweep crosses arrival
pattern x imbalance (kappa) x algorithm x topology and produces the
crossover: with near-synchronous arrivals (constant pattern, kappa ~ 0)
the collective dominates and application-bypass wins — PRA's O(n)
arrival chain loses badly; once one straggler group dominates (bursty,
kappa >> 1), SRA/PRA overlap almost the whole reduction with the
stragglers' delay and overtake ab.
"""

from __future__ import annotations

from typing import Sequence

from ..config import NetParams, WorkloadParams
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..orchestrate.runner import run_points
from ..bench.report import Table
from .common import ExperimentOutput

#: (pattern tag, WorkloadParams) — the kappa axis: constant arrivals are
#: perfectly balanced (kappa = 0); the bursty straggler group pushes the
#: mean spread far past one collective latency (kappa >> 1).
PATTERNS = (
    ("constant", WorkloadParams(pattern="constant", scale_us=25.0)),
    ("bursty", WorkloadParams(pattern="bursty", scale_us=1500.0,
                              jitter_us=50.0, straggler_frac=0.25)),
)
ALGOS = ("nab", "ab", "pipelined", "sra", "pra")
#: Topology axis: the ideal crossbar and a 4-hosts-per-switch fat tree.
TOPOLOGIES = (
    ("crossbar", None),
    ("fattree", NetParams(topology="fattree", fattree_hosts_per_switch=4)),
)


def build_points(*, size: int = 16, elements: int = 512,
                 patterns: Sequence = PATTERNS,
                 topologies: Sequence = TOPOLOGIES,
                 iterations: int = 8, seed: int = 1,
                 collect_invariants: bool = True) -> list[SweepPoint]:
    """The grid, in the deterministic order :func:`run`'s cursor expects:
    topology-major, then pattern, then algorithm.  The pipelined variant
    arms PipelineParams (512 doubles -> two 2 KiB segments); the
    schedule-driven variants execute whole-message by design."""
    from ..config import PipelineParams
    points = []
    for _topo_tag, net in topologies:
        for tag, workload in patterns:
            for algo in ALGOS:
                pipeline = (PipelineParams(segment_size_bytes=2048,
                                           max_inflight_segments=3)
                            if algo == "pipelined" else None)
                points.append(SweepPoint(
                    experiment=f"fig_pap-{tag}-{algo}", kind="pap",
                    config=ConfigSpec("quiet", size, seed, net=net,
                                      workload=workload, pipeline=pipeline),
                    build="ab" if algo in ("ab", "pipelined") else "nab",
                    elements=elements, iterations=iterations, warmup=1,
                    options={"algo": algo},
                    collect_invariants=collect_invariants))
    return points


def run(*, size: int = 16, elements: int = 512,
        patterns: Sequence = PATTERNS, topologies: Sequence = TOPOLOGIES,
        iterations: int = 8, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    points = build_points(size=size, elements=elements, patterns=patterns,
                          topologies=topologies, iterations=iterations,
                          seed=seed)
    results = run_points(points, jobs=jobs, progress=progress)

    tables = []
    headline = []
    cursor = iter(results)
    pattern_tags = [tag for tag, _w in patterns]
    for topo_tag, _net in topologies:
        cells = {}
        for tag in pattern_tags:
            for algo in ALGOS:
                cells[(tag, algo)] = next(cursor)
        # X axis is the measured imbalance factor of each pattern (same
        # for every algorithm of a pattern — it describes the trace).
        kappas = [round(cells[(tag, "ab")].metrics.get("arrival_kappa",
                                                       0.0), 2)
                  for tag in pattern_tags]
        table = Table(
            f"fig_pap: allreduce makespan (us) vs arrival imbalance "
            f"kappa ({', '.join(pattern_tags)}), {topo_tag}, n={size}, "
            f"{elements} elements", "kappa", kappas)
        for algo in ALGOS:
            table.add_series(
                algo, [cells[(tag, algo)].metrics["avg_makespan_us"]
                       for tag in pattern_tags])
        for algo in ("sra", "pra"):
            table.factor_series(f"ab/{algo}", "ab", algo)
        tables.append(table)

        for tag in pattern_tags:
            ab = cells[(tag, "ab")].metrics["avg_makespan_us"]
            best_algo = min(("sra", "pra"),
                            key=lambda a, _tag=tag:
                            cells[(_tag, a)].metrics["avg_makespan_us"])
            best = cells[(tag, best_algo)].metrics["avg_makespan_us"]
            kappa = cells[(tag, "ab")].metrics.get("arrival_kappa", 0.0)
            winner = ("ab" if ab <= best else best_algo)
            headline.append(
                f"{topo_tag}/{tag} (kappa={kappa:.2f}): ab {ab:.1f}us vs "
                f"best PAP-aware ({best_algo}) {best:.1f}us -> "
                f"{winner} wins ({ab / best:.2f}x)")

    out = ExperimentOutput("fig_pap", tables, points=results)
    out.notes.extend(headline)
    violations = sum((r.invariant_report or {}).get("violation_count", 0)
                     for r in results)
    out.notes.append(
        f"invariant violations across the sweep: {violations}")
    return out
