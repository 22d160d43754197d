"""Fig. 8 — CPU utilization and factor of improvement vs. system size,
WITHOUT injected process skew.

Paper headline: this is the worst case for application bypass (all of its
overhead, none of its benefit) — yet naturally occurring skew grows with
system size, so the ab build loses at small node counts (factor ~0.7-0.9),
crosses over, and wins by up to 1.5 at 32 nodes / 128 elements; larger
messages cross over at smaller node counts.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

from ..bench.sweep import BUILD_TAGS, build_by_size_table, sweep
from ..orchestrate.points import cpu_util_point
from .common import ExperimentOutput, PAPER_ELEMENTS, PAPER_SIZES


def crossover_size(sizes: Sequence[int], factors: Sequence[float]) -> Optional[int]:
    """Smallest node count at which ab starts winning (factor >= 1)."""
    for size, factor in zip(sizes, factors):
        if factor >= 1.0:
            return size
    return None


def run(*, sizes: Sequence[int] = PAPER_SIZES,
        element_sizes: Sequence[int] = PAPER_ELEMENTS,
        iterations: int = 150, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    cells = sweep(
        {"build": BUILD_TAGS, "elements": element_sizes, "size": sizes},
        partial(cpu_util_point, "fig8", seed=seed, iterations=iterations),
        jobs=jobs, progress=progress)
    table = build_by_size_table(
        cells, "Average CPU utilization vs. nodes (max skew 0us)",
        "nodes", along="size")
    out = ExperimentOutput("fig8", [table], points=cells.points)

    largest = max(element_sizes)
    f_large = table._find(f"factor-{largest}").values
    out.notes.append(
        f"max factor at {sizes[-1]} nodes / {largest} elements: "
        f"{f_large[-1]:.2f} (paper: 1.5)")
    crossings = {
        e: crossover_size(sizes, table._find(f"factor-{e}").values)
        for e in element_sizes
    }
    out.notes.append(f"crossover node counts (ab starts winning): {crossings} "
                     "— paper: larger messages cross over earlier")
    smallest = min(element_sizes)
    f_small_first = table._find(f"factor-{smallest}").values[0]
    out.notes.append(
        f"factor at {sizes[0]} nodes / {smallest} elements: "
        f"{f_small_first:.2f} (paper: below 1.0 — pure overhead)")
    return out
