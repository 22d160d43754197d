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

from ..bench.sweep import build_by_size_table, sweep
from ..mpich.rank import BUILD_TAGS
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

    factors = {e: table._find(f"factor-{e}").values for e in element_sizes}
    small, large = min(element_sizes), max(element_sizes)
    out.claim(f"ab loses at {small} elements on "
              + " and ".join(f"{s} nodes ({f:.2f})"
                             for s, f in zip(sizes, factors[small][:2]))
              + " (paper: 0.7-0.9, pure overhead)",
              all(f < 1.0 for f in factors[small][:2]))
    best = factors[large][-1]
    out.claim(f"ab wins at {sizes[-1]} nodes / {large} elements: factor "
              f"{best:.2f}, within 1.15-2.0 (paper: 1.5)", 1.15 < best < 2.0)
    out.claim(f"the largest message gains most at {sizes[-1]} nodes: "
              f"{best:.2f} at {large} elements vs {factors[small][-1]:.2f} "
              f"at {small}", best > factors[small][-1])
    crossings = {e: crossover_size(sizes, f) for e, f in factors.items()}
    out.claim(f"larger messages cross over earlier: node counts where ab "
              f"starts winning {crossings}",
              crossings[large] is not None
              and crossings[large] <= (crossings[small] or sizes[-1]))
    return out
