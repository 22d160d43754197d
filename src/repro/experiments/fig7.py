"""Fig. 7 — CPU utilization and factor of improvement vs. system size,
at maximal process skew (1000 us).

Paper headline: the factor of improvement *increases with the number of
nodes* (max 5.1 at 32 nodes / 4 elements), demonstrating the enhanced
scalability of the application-bypass implementation.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..bench.sweep import BUILD_TAGS, build_by_size_table, sweep
from ..orchestrate.points import cpu_util_point
from .common import ExperimentOutput, PAPER_ELEMENTS, PAPER_SIZES


def run(*, sizes: Sequence[int] = PAPER_SIZES,
        element_sizes: Sequence[int] = PAPER_ELEMENTS,
        max_skew_us: float = 1000.0, iterations: int = 100, seed: int = 1,
        jobs: int = 1, progress=None) -> ExperimentOutput:
    cells = sweep(
        {"build": BUILD_TAGS, "elements": element_sizes, "size": sizes},
        partial(cpu_util_point, "fig7", skew=max_skew_us, seed=seed,
                iterations=iterations),
        jobs=jobs, progress=progress)
    table = build_by_size_table(
        cells,
        f"Average CPU utilization vs. nodes (max skew {max_skew_us:.0f}us)",
        "nodes", along="size")
    out = ExperimentOutput("fig7", [table], points=cells.points)

    smallest = min(element_sizes)
    factors = table._find(f"factor-{smallest}").values
    out.notes.append(
        f"factor at {sizes[-1]} nodes, {smallest} elements: "
        f"{factors[-1]:.2f} (paper: 5.1)")
    grows = factors[-1] > factors[0]
    out.notes.append(
        "factor of improvement increases with system size: "
        f"{'yes' if grows else 'NO'} "
        f"({factors[0]:.2f} at {sizes[0]} nodes -> "
        f"{factors[-1]:.2f} at {sizes[-1]} nodes)")
    return out
