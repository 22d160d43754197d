"""Ablation studies for the design choices the paper discusses.

1. **Exit-delay heuristic** (Sec. IV-E): none / fixed / log / linear
   policies, measuring skewed and unskewed CPU utilization plus the number
   of signals the window avoided.
2. **Signal cost sensitivity** (Sec. IV-A, interrupt- vs. thread-like
   regimes): sweep the per-signal kernel overhead and watch the factor of
   improvement.
3. **Queue strategy** (Sec. V-A): the shipped custom AB unexpected queue
   vs. the rejected design that reuses MPICH's non-blocking machinery
   (extra copy + management per message).
4. **Eager-limit fallback**: where the ab protocol stops being used and
   the default path takes over.

Every study is a grid of independent simulator runs, so each builds its
points and executes them through the orchestrator — ``--jobs N`` applies
here exactly as it does to the figure sweeps.
"""

from __future__ import annotations

from ..bench.report import Table
from ..config import AbParams, NicParams
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..orchestrate.runner import run_points
from .common import ExperimentOutput


def _cpu_point(spec: ConfigSpec, build: str, *, elements: int,
               skew: float, iterations: int,
               experiment: str) -> SweepPoint:
    return SweepPoint(experiment=experiment, kind="cpu_util", config=spec,
                      build=build, elements=elements, max_skew_us=skew,
                      iterations=iterations)


def ablate_exit_delay(*, size: int = 32, iterations: int = 60, seed: int = 1,
                      jobs: int = 1, progress=None,
                      collect=None) -> Table:
    policies = (("none", 0.0), ("fixed", 8.0), ("log", 2.0), ("linear", 0.5))
    table = Table("Ablation: exit-delay policy (32 nodes, 4 elements)",
                  "variant", list(range(len(policies))))
    points = []
    for policy, coeff in policies:
        spec = ConfigSpec("paper", size, seed,
                          ab=AbParams(exit_delay_policy=policy,
                                      exit_delay_coeff_us=coeff))
        points.append(_cpu_point(spec, "ab", elements=4, skew=1000.0,
                                 iterations=iterations,
                                 experiment="ablation_exit_delay"))
        points.append(_cpu_point(spec, "ab", elements=4, skew=0.0,
                                 iterations=iterations,
                                 experiment="ablation_exit_delay"))
    results = run_points(points, jobs=jobs, progress=progress)
    if collect is not None:
        collect.extend(results)
    skewed = [r.metrics["avg_util_us"] for r in results[0::2]]
    unskewed = [r.metrics["avg_util_us"] for r in results[1::2]]
    signals = [r.metrics["signals"] for r in results[1::2]]
    table.add_series("util@skew1000", skewed)
    table.add_series("util@noskew", unskewed)
    table.add_series("signals@noskew", signals)
    labels = [f"{policy}({coeff:g})" for policy, coeff in policies]
    table.title += "  [variants: " + ", ".join(
        f"{i}={lbl}" for i, lbl in enumerate(labels)) + "]"
    return table


def ablate_signal_cost(*, size: int = 32, iterations: int = 60, seed: int = 1,
                       jobs: int = 1, progress=None,
                       collect=None) -> Table:
    overheads = (2.0, 5.0, 10.0, 20.0)
    table = Table("Ablation: per-signal kernel overhead (32 nodes, "
                  "4 elements, skew 1000us)", "signal_us", overheads)
    points = []
    for overhead in overheads:
        spec = ConfigSpec("paper", size, seed,
                          nic=NicParams(signal_overhead_us=overhead))
        for build in ("nab", "ab"):
            points.append(_cpu_point(spec, build, elements=4, skew=1000.0,
                                     iterations=iterations,
                                     experiment="ablation_signal_cost"))
    results = run_points(points, jobs=jobs, progress=progress)
    if collect is not None:
        collect.extend(results)
    nab_utils = [r.metrics["avg_util_us"] for r in results[0::2]]
    ab_utils = [r.metrics["avg_util_us"] for r in results[1::2]]
    table.add_series("ab util", ab_utils)
    table.add_series("factor", [n / a for n, a in zip(nab_utils, ab_utils)])
    return table


def ablate_queue_strategy(*, size: int = 32, iterations: int = 60,
                          seed: int = 1, jobs: int = 1, progress=None,
                          collect=None) -> Table:
    variants = (False, True)
    table = Table("Ablation: custom AB queue vs. reusing MPICH non-blocking "
                  "machinery (32 nodes, 128 elements)", "reuse_mpich",
                  [int(v) for v in variants])
    points = []
    for reuse in variants:
        spec = ConfigSpec("paper", size, seed,
                          ab=AbParams(reuse_mpich_queues=reuse))
        points.append(_cpu_point(spec, "ab", elements=128, skew=1000.0,
                                 iterations=iterations,
                                 experiment="ablation_queue_strategy"))
        points.append(_cpu_point(spec, "ab", elements=128, skew=0.0,
                                 iterations=iterations,
                                 experiment="ablation_queue_strategy"))
    results = run_points(points, jobs=jobs, progress=progress)
    if collect is not None:
        collect.extend(results)
    table.add_series("util@skew1000",
                     [r.metrics["avg_util_us"] for r in results[0::2]])
    table.add_series("util@noskew",
                     [r.metrics["avg_util_us"] for r in results[1::2]])
    return table


def ablate_eager_limit(*, size: int = 16, iterations: int = 40, seed: int = 1,
                       jobs: int = 1, progress=None,
                       collect=None) -> Table:
    """Message sizes straddling a lowered AB eager limit: beyond it the
    protocol must fall back to the default path and the ab advantage
    disappears (but correctness holds)."""
    limit_bytes = 512
    element_sizes = (16, 48, 64, 80, 128)  # 128B .. 1KiB around the limit
    table = Table(f"Ablation: AB eager-limit fallback (limit={limit_bytes}B, "
                  f"{size} nodes, skew 1000us)", "elements", element_sizes)
    limited = ConfigSpec("paper", size, seed,
                         ab=AbParams(eager_limit_bytes=limit_bytes))
    baseline = ConfigSpec("paper", size, seed)
    points = []
    for elements in element_sizes:
        points.append(_cpu_point(limited, "ab", elements=elements,
                                 skew=1000.0, iterations=iterations,
                                 experiment="ablation_eager_limit"))
        points.append(_cpu_point(baseline, "ab", elements=elements,
                                 skew=1000.0, iterations=iterations,
                                 experiment="ablation_eager_limit"))
        points.append(_cpu_point(baseline, "nab", elements=elements,
                                 skew=1000.0, iterations=iterations,
                                 experiment="ablation_eager_limit"))
    results = run_points(points, jobs=jobs, progress=progress)
    if collect is not None:
        collect.extend(results)
    utils = [r.metrics["avg_util_us"] for r in results[0::3]]
    utils_nolimit = [r.metrics["avg_util_us"] for r in results[1::3]]
    nab_utils = [r.metrics["avg_util_us"] for r in results[2::3]]
    table.add_series("ab util (limit 512B)", utils)
    table.add_series("ab util (limit 16K)", utils_nolimit)
    table.add_series("factor vs nab",
                     [n / lim for n, lim in zip(nab_utils, utils)])
    return table


def run(*, iterations: int = 60, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    out = ExperimentOutput("ablations")
    out.tables.append(ablate_exit_delay(iterations=iterations, seed=seed,
                                        jobs=jobs, progress=progress,
                                        collect=out.points))
    out.tables.append(ablate_signal_cost(iterations=iterations, seed=seed,
                                         jobs=jobs, progress=progress,
                                         collect=out.points))
    out.tables.append(ablate_queue_strategy(iterations=iterations, seed=seed,
                                            jobs=jobs, progress=progress,
                                            collect=out.points))
    out.tables.append(ablate_eager_limit(iterations=max(20, iterations // 2),
                                         seed=seed, jobs=jobs,
                                         progress=progress,
                                         collect=out.points))
    out.notes.append("exit-delay variants trade signal count against "
                     "lingering CPU; the shipped default is 'none'")
    out.notes.append("past ~384B the 512B-limited build falls back to the "
                     "default path and its factor collapses toward 1.0")
    return out
