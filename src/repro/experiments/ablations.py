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
5. **Packet loss**: a lossy fabric behind GM's go-back-N reliable
   delivery; loss recovery and skew tolerance should be orthogonal, so
   the ab advantage survives.

Every study is a grid of independent simulator runs, so each builds its
points and executes them through the orchestrator — ``--jobs N`` applies
here exactly as it does to the figure sweeps.
"""

from __future__ import annotations

from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import AbParams, NetParams, NicParams
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import cpu_util_point
from .common import ExperimentOutput


def ablate_exit_delay(*, size: int = 32, iterations: int = 60, seed: int = 1,
                      jobs: int = 1, progress=None) -> ExperimentOutput:
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
    signals = cells.series("signals", along="policy", skew=0.0)
    table.add_series("signals@noskew", signals)
    out = ExperimentOutput("ablation_exit_delay", [table],
                           points=cells.points)
    out.claim("no lingering exit-delay policy raises more signals than "
              f"'none' without skew: {signals[0]:g} for none, "
              + ", ".join(f"{s:g}" for s in signals[1:]) + " lingering",
              all(s <= signals[0] for s in signals[1:]))
    out.notes.append("exit-delay variants trade signal count against "
                     "lingering CPU; the shipped default is 'none'")
    return out


def ablate_signal_cost(*, size: int = 32, iterations: int = 60, seed: int = 1,
                       jobs: int = 1, progress=None) -> ExperimentOutput:
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
    factors = [n / a for n, a in zip(nab_utils, ab_utils)]
    table.add_series("ab util", ab_utils)
    table.add_series("factor", factors)
    out = ExperimentOutput("ablation_signal_cost", [table],
                           points=cells.points)
    out.claim(f"costlier signals raise ab utilization ({ab_utils[0]:.2f} -> "
              f"{ab_utils[-1]:.2f}us) and shrink the factor "
              f"({factors[0]:.2f} -> {factors[-1]:.2f}) monotonically",
              ab_utils == sorted(ab_utils)
              and factors == sorted(factors, reverse=True))
    out.claim(f"ab still wins under heavy skew at {overheads[-1]:g}us per "
              f"signal: factor {factors[-1]:.2f}, above 2.0",
              factors[-1] > 2.0)
    return out


def ablate_queue_strategy(*, size: int = 32, iterations: int = 60,
                          seed: int = 1, jobs: int = 1,
                          progress=None) -> ExperimentOutput:
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
    custom, reuse = cells.series("avg_util_us", along="reuse", skew=1000.0)
    table.add_series("util@skew1000", [custom, reuse])
    table.add_series("util@noskew", cells.series(
        "avg_util_us", along="reuse", skew=0.0))
    out = ExperimentOutput("ablation_queue_strategy", [table],
                           points=cells.points)
    out.claim(f"reusing MPICH's queues costs more CPU under skew (extra "
              f"copies): {reuse:.2f} vs {custom:.2f}us", reuse > custom)
    return out


def ablate_eager_limit(*, size: int = 16, iterations: int = 40, seed: int = 1,
                       jobs: int = 1, progress=None) -> ExperimentOutput:
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
    factors = [n / lim for n, lim in zip(nab_utils, utils)]
    table.add_series("ab util (limit 512B)", utils)
    table.add_series("ab util (limit 16K)", utils_nolimit)
    table.add_series("factor vs nab", factors)
    out = ExperimentOutput("ablation_eager_limit", [table],
                           points=cells.points)
    small, large = element_sizes[0], element_sizes[-1]
    out.claim(f"below the limit both ab builds behave alike: {utils[0]:.2f} "
              f"vs {utils_nolimit[0]:.2f}us at {small} elements (within "
              f"25%), factor {factors[0]:.2f} above 2.5",
              abs(utils[0] - utils_nolimit[0]) < 0.25 * utils_nolimit[0]
              and factors[0] > 2.5)
    out.claim(f"past ~384B the {limit_bytes}B-limited build falls back to "
              f"the default path: {utils[-1]:.2f} vs {utils_nolimit[-1]:.2f}"
              f"us at {large} elements (more than 2x), factor "
              f"{factors[-1]:.2f} below 1.5",
              utils[-1] > 2.0 * utils_nolimit[-1] and factors[-1] < 1.5)
    return out


def ablate_loss(*, size: int = 16, iterations: int = 20, seed: int = 1,
                jobs: int = 1, progress=None) -> ExperimentOutput:
    """A lossy fabric behind GM's reliable delivery: retransmit delays
    extend both builds' waits, the ab-vs-nab factor survives."""
    loss_rates = (0.0, 0.01, 0.05, 0.10)
    cells = sweep(
        {"drop": loss_rates, "build": BUILD_TAGS},
        lambda drop, build: cpu_util_point(
            "ablation_loss", size, build, seed=seed, iterations=iterations,
            elements=4, skew=1000.0,
            net=NetParams(drop_prob=drop, retransmit_timeout_us=100.0)),
        jobs=jobs, progress=progress)
    table = Table(f"Ablation: fabric packet loss ({size} nodes, 4 elements, "
                  "skew 1000us)", "drop_prob", loss_rates,
                  value_fmt="{:.2f}")
    nab_utils, ab_utils = (
        cells.series("avg_util_us", along="drop", build=build)
        for build in BUILD_TAGS)
    factors = [n / a for n, a in zip(nab_utils, ab_utils)]
    table.add_series("nab util", nab_utils)
    table.add_series("ab util", ab_utils)
    table.add_series("factor", factors)
    out = ExperimentOutput("ablation_loss", [table], points=cells.points)
    out.claim(f"the ab advantage survives {loss_rates[-1]:.0%} packet loss: "
              f"lowest factor {min(factors):.2f}, above 2.0",
              min(factors) > 2.0)
    out.claim(f"loss costs the default build CPU: nab {nab_utils[0]:.2f} -> "
              f"{nab_utils[-1]:.2f}us", nab_utils[-1] > nab_utils[0])
    return out


def run(*, iterations: int = 60, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    out = ExperimentOutput("ablations")
    common = dict(seed=seed, jobs=jobs, progress=progress)
    for study in (ablate_exit_delay, ablate_signal_cost,
                  ablate_queue_strategy):
        out.add(study(iterations=iterations, **common))
    for study in (ablate_eager_limit, ablate_loss):
        out.add(study(iterations=max(20, iterations // 2), **common))
    return out
