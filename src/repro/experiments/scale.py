"""Scalability extrapolation beyond the paper's testbed.

The paper's conclusion: "the factor of improvement increases with system
size, indicating that the skew-tolerant benefits of our application-bypass
implementation will lead to better scalability ... on larger clusters",
and its future work begins with "we intend to evaluate the performance of
application-bypass operations on large-scale clusters."

The authors had 32 nodes; the simulator does not.  This experiment tiles
the same interlaced machine mix out to 256 nodes and re-runs the Fig. 7
protocol (CPU utilization at 1000 us max skew), checking that the factor
keeps climbing — the trend the whole paper is arguing for.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..bench.report import Table
from ..bench.sweep import sweep
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import cpu_util_point
from .common import ExperimentOutput

SCALE_SIZES = (16, 32, 64, 128, 256)


def run(*, sizes: Sequence[int] = SCALE_SIZES, elements: int = 4,
        max_skew_us: float = 1000.0, iterations: int = 20, seed: int = 1,
        jobs: int = 1, progress=None) -> ExperimentOutput:
    cells = sweep(
        {"build": BUILD_TAGS, "size": sizes},
        partial(cpu_util_point, "scale", factory="extrapolated",
                elements=elements, skew=max_skew_us, seed=seed,
                iterations=iterations),
        jobs=jobs, progress=progress)
    table = Table(
        f"Scalability extrapolation: factor of improvement vs. nodes "
        f"(skew {max_skew_us:.0f}us, {elements} elements)",
        "nodes", sizes)
    cells.fill(table, "avg_util_us", along="size", label="{build}")
    table.factor_series("factor", "nab", "ab")

    out = ExperimentOutput("scale", [table], points=cells.points)
    factors = table._find("factor").values
    out.claim(
        f"factor keeps increasing beyond the paper's 32 nodes "
        f"({', '.join(f'{s}:{f:.2f}' for s, f in zip(sizes, factors))})",
        all(b > a for a, b in zip(factors, factors[1:])))
    if 32 in sizes:
        at_32 = factors[sizes.index(32)]
        out.claim(f"the factor at 32 nodes ({at_32:.2f}, above 4.0) grows "
                  f"more than 1.6x by {sizes[-1]} nodes ({factors[-1]:.2f})",
                  at_32 > 4.0 and factors[-1] > 1.6 * at_32)
    out.notes.append(
        "mechanism: the default build's average utilization saturates near "
        "E[max skew] x tree-shape while the bypass build's per-node cost "
        "keeps falling as leaves dominate the population")
    return out
