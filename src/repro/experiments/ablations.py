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
from ..bench.sweep import BUILD_TAGS, sweep
from ..config import AbParams, NicParams
from ..orchestrate.points import PointResult, cpu_util_point
from .common import ExperimentOutput

#: What each study hands back: its table and the orchestrator results
#: behind it (the BENCH json payload).
Study = tuple[Table, list[PointResult]]


def ablate_exit_delay(*, size: int = 32, iterations: int = 60, seed: int = 1,
                      jobs: int = 1, progress=None) -> Study:
    policies = (("none", 0.0), ("fixed", 8.0), ("log", 2.0), ("linear", 0.5))
    cells = sweep(
        {"policy": policies, "skew": (1000.0, 0.0)},
        lambda policy, skew: cpu_util_point(
            "ablation_exit_delay", size, "ab", seed=seed,
            iterations=iterations, elements=4, skew=skew,
            ab=AbParams(exit_delay_policy=policy[0],
                        exit_delay_coeff_us=policy[1])),
        jobs=jobs, progress=progress)
    labels = [f"{policy}({coeff:g})" for policy, coeff in policies]
    table = Table("Ablation: exit-delay policy (32 nodes, 4 elements)"
                  "  [variants: " + ", ".join(
                      f"{i}={lbl}" for i, lbl in enumerate(labels)) + "]",
                  "variant", range(len(policies)))
    table.add_series("util@skew1000", cells.series(
        "avg_util_us", along="policy", skew=1000.0))
    table.add_series("util@noskew", cells.series(
        "avg_util_us", along="policy", skew=0.0))
    table.add_series("signals@noskew", cells.series(
        "signals", along="policy", skew=0.0))
    return table, cells.points


def ablate_signal_cost(*, size: int = 32, iterations: int = 60, seed: int = 1,
                       jobs: int = 1, progress=None) -> Study:
    overheads = (2.0, 5.0, 10.0, 20.0)
    cells = sweep(
        {"overhead": overheads, "build": BUILD_TAGS},
        lambda overhead, build: cpu_util_point(
            "ablation_signal_cost", size, build, seed=seed,
            iterations=iterations, elements=4, skew=1000.0,
            nic=NicParams(signal_overhead_us=overhead)),
        jobs=jobs, progress=progress)
    table = Table("Ablation: per-signal kernel overhead (32 nodes, "
                  "4 elements, skew 1000us)", "signal_us", overheads)
    nab_utils = cells.series("avg_util_us", along="overhead", build="nab")
    ab_utils = cells.series("avg_util_us", along="overhead", build="ab")
    table.add_series("ab util", ab_utils)
    table.add_series("factor", [n / a for n, a in zip(nab_utils, ab_utils)])
    return table, cells.points


def ablate_queue_strategy(*, size: int = 32, iterations: int = 60,
                          seed: int = 1, jobs: int = 1,
                          progress=None) -> Study:
    variants = (False, True)
    cells = sweep(
        {"reuse": variants, "skew": (1000.0, 0.0)},
        lambda reuse, skew: cpu_util_point(
            "ablation_queue_strategy", size, "ab", seed=seed,
            iterations=iterations, elements=128, skew=skew,
            ab=AbParams(reuse_mpich_queues=reuse)),
        jobs=jobs, progress=progress)
    table = Table("Ablation: custom AB queue vs. reusing MPICH non-blocking "
                  "machinery (32 nodes, 128 elements)", "reuse_mpich",
                  [int(v) for v in variants])
    table.add_series("util@skew1000", cells.series(
        "avg_util_us", along="reuse", skew=1000.0))
    table.add_series("util@noskew", cells.series(
        "avg_util_us", along="reuse", skew=0.0))
    return table, cells.points


def ablate_eager_limit(*, size: int = 16, iterations: int = 40, seed: int = 1,
                       jobs: int = 1, progress=None) -> Study:
    """Message sizes straddling a lowered AB eager limit: beyond it the
    protocol must fall back to the default path and the ab advantage
    disappears (but correctness holds)."""
    limit_bytes = 512
    element_sizes = (16, 48, 64, 80, 128)  # 128B .. 1KiB around the limit
    limited = AbParams(eager_limit_bytes=limit_bytes)
    variants = {"ab-limited": ("ab", limited), "ab": ("ab", None),
                "nab": ("nab", None)}
    cells = sweep(
        {"elements": element_sizes, "variant": tuple(variants)},
        lambda elements, variant: cpu_util_point(
            "ablation_eager_limit", size, variants[variant][0], seed=seed,
            iterations=iterations, elements=elements, skew=1000.0,
            ab=variants[variant][1]),
        jobs=jobs, progress=progress)
    table = Table(f"Ablation: AB eager-limit fallback (limit={limit_bytes}B, "
                  f"{size} nodes, skew 1000us)", "elements", element_sizes)
    utils, utils_nolimit, nab_utils = (
        cells.series("avg_util_us", along="elements", variant=variant)
        for variant in ("ab-limited", "ab", "nab"))
    table.add_series("ab util (limit 512B)", utils)
    table.add_series("ab util (limit 16K)", utils_nolimit)
    table.add_series("factor vs nab",
                     [n / lim for n, lim in zip(nab_utils, utils)])
    return table, cells.points


def run(*, iterations: int = 60, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    out = ExperimentOutput("ablations")
    common = dict(seed=seed, jobs=jobs, progress=progress)
    for table, points in (
            ablate_exit_delay(iterations=iterations, **common),
            ablate_signal_cost(iterations=iterations, **common),
            ablate_queue_strategy(iterations=iterations, **common),
            ablate_eager_limit(iterations=max(20, iterations // 2),
                               **common)):
        out.tables.append(table)
        out.points.extend(points)
    out.notes.append("exit-delay variants trade signal count against "
                     "lingering CPU; the shipped default is 'none'")
    out.notes.append("past ~384B the 512B-limited build falls back to the "
                     "default path and its factor collapses toward 1.0")
    return out
