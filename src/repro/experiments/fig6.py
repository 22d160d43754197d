"""Fig. 6 — CPU utilization and factor of improvement vs. process skew.

32 nodes, double-word messages of 4/32/128 elements, maximum skew swept
0..1000 us.  Paper headline: the application-bypass build wins at every
(skew, size) point, with a factor of improvement up to 5.1 at 4 elements
and 1000 us of skew, and the factor is greatest for small messages.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..bench.sweep import BUILD_TAGS, build_by_size_table, sweep
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

    # Headline checks mirrored from the paper's text.
    factors = {
        elements: table._find(f"factor-{elements}").values
        for elements in element_sizes
    }
    peak = max(max(v) for v in factors.values())
    smallest = min(element_sizes)
    peak_small = max(factors[smallest])
    out.notes.append(
        f"max factor of improvement {peak:.2f} (paper: 5.1)")
    out.notes.append(
        f"factor at max skew, {smallest} elements: "
        f"{factors[smallest][-1]:.2f} — paper reports the peak at the "
        f"smallest message size ({peak_small:.2f} here)")
    monotone = all(factors[smallest][i] <= factors[smallest][i + 1] + 0.35
                   for i in range(len(skews) - 1))
    out.notes.append(
        f"factor grows with skew: {'yes' if monotone else 'roughly'}")
    return out
