"""Fig. 7 — CPU utilization and factor of improvement vs. system size,
at maximal process skew (1000 us).

Paper headline: the factor of improvement *increases with the number of
nodes* (max 5.1 at 32 nodes / 4 elements), demonstrating the enhanced
scalability of the application-bypass implementation.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..bench.sweep import build_by_size_table, sweep
from ..mpich.rank import BUILD_TAGS
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

    factors = {e: table._find(f"factor-{e}").values for e in element_sizes}
    first, last = sizes[0], sizes[-1]
    out.claim(f"factor of improvement grows from {first} to {last} nodes at "
              "every message size: "
              + ", ".join(f"{e}: {f[0]:.2f} -> {f[-1]:.2f}"
                          for e, f in factors.items()),
              all(f[-1] > f[0] for f in factors.values()))
    lowest = min(f[-1] for f in factors.values())
    out.claim(f"ab wins by more than 2.5x at {last} nodes at every message "
              f"size: lowest factor {lowest:.2f}", lowest > 2.5)
    small = min(element_sizes)
    f_small = factors[small]
    out.claim(f"factor at {last} nodes, {small} elements: {f_small[-1]:.2f}, "
              "within 4.0-6.5 (paper: 5.1)", 4.0 < f_small[-1] < 6.5)
    out.claim(f"factor grows with system size at {small} elements, no step "
              "down by more than 0.4",
              all(hi > lo - 0.4 for lo, hi in zip(f_small, f_small[1:])))
    return out
