"""Fig. 6 — CPU utilization and factor of improvement vs. process skew.

32 nodes, double-word messages of 4/32/128 elements, maximum skew swept
0..1000 us.  Paper headline: the application-bypass build wins at every
(skew, size) point, with a factor of improvement up to 5.1 at 4 elements
and 1000 us of skew, and the factor is greatest for small messages.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..bench.sweep import build_by_size_table, sweep
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import cpu_util_point
from .common import ExperimentOutput, PAPER_ELEMENTS, PAPER_SKEWS


def run(*, size: int = 32, skews: Sequence[float] = PAPER_SKEWS,
        element_sizes: Sequence[int] = PAPER_ELEMENTS,
        iterations: int = 100, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    cells = sweep(
        {"build": BUILD_TAGS, "elements": element_sizes, "skew": skews},
        partial(cpu_util_point, "fig6", size, seed=seed,
                iterations=iterations),
        jobs=jobs, progress=progress)
    table = build_by_size_table(
        cells, f"Average CPU utilization vs. max skew ({size} nodes)",
        "skew_us", along="skew")
    out = ExperimentOutput("fig6", [table], points=cells.points)

    factors = {e: table._find(f"factor-{e}").values for e in element_sizes}
    lowest = min(min(f) for f in factors.values())
    out.claim("ab uses no more CPU than nab at every (skew, message size) "
              f"cell: lowest factor {lowest:.2f}", lowest >= 1.0)
    out.claim("factor grows from no skew to max skew at every message size: "
              + ", ".join(f"{e}: {f[0]:.2f} -> {f[-1]:.2f}"
                          for e, f in factors.items()),
              all(f[-1] > f[0] for f in factors.values()))
    small, large = min(element_sizes), max(element_sizes)
    peak = factors[small][-1]
    out.claim(f"factor at max skew, {small} elements: {peak:.2f}, within "
              "4.0-6.5 (paper: 5.1)", 4.0 < peak < 6.5)
    out.claim(f"the smallest message gains most at max skew: {peak:.2f} at "
              f"{small} elements vs {factors[large][-1]:.2f} at {large} "
              "(paper: the peak is at the smallest size)",
              peak > factors[large][-1])
    out.claim(f"factor grows with skew at {small} elements, no step down by "
              "more than 0.35",
              all(lo <= hi + 0.35
                  for lo, hi in zip(factors[small], factors[small][1:])))
    return out
