"""Fig. 9 — reduction latency vs. system size, no injected skew,
single-element double-word messages.

(a) the heterogeneous 32-node cluster; (b) the homogeneous 16-node
(700 MHz) cluster.  Paper headline: latencies are nearly identical at small
node counts; past four nodes the application-bypass build pays signal
overhead for naturally late messages and its latency sits above the
default's.
"""

from __future__ import annotations

from typing import Sequence

from ..bench.report import Table
from ..bench.sweep import BUILD_TAGS, Cells, sweep
from ..orchestrate.points import ConfigSpec, SweepPoint
from .common import ExperimentOutput

HETERO_SIZES = (2, 4, 8, 16, 32)
HOMO_SIZES = (2, 4, 8, 16)


def _panel(panel: str, factory: str, cluster: str, sizes: Sequence[int], *,
           iterations: int, seed: int, jobs: int,
           progress) -> tuple[Table, Cells]:
    """One Fig. 9 panel: latency vs. node count on one cluster preset."""
    cells = sweep(
        {"build": BUILD_TAGS, "size": sizes},
        lambda build, size: SweepPoint(
            experiment=f"fig{panel}", kind="latency",
            config=ConfigSpec(factory, size, seed), build=build,
            elements=1, iterations=iterations),
        jobs=jobs, progress=progress)
    table = Table(
        f"Fig {panel}: Total reduction latency vs. nodes "
        f"(1-element messages) [{cluster}]", "nodes", sizes)
    cells.fill(table, "avg_latency_us", along="size", label="{build}")
    table.factor_series("ab/nab", "ab", "nab")
    return table, cells


def run(*, hetero_sizes: Sequence[int] = HETERO_SIZES,
        homo_sizes: Sequence[int] = HOMO_SIZES,
        iterations: int = 150, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    common = dict(iterations=iterations, seed=seed, jobs=jobs,
                  progress=progress)
    table_a, cells_a = _panel("9a", "paper", "heterogeneous", hetero_sizes,
                              **common)
    table_b, cells_b = _panel("9b", "homogeneous", "homogeneous 700MHz",
                              homo_sizes, **common)
    out = ExperimentOutput("fig9", [table_a, table_b],
                           points=cells_a.points + cells_b.points)

    nab_a = table_a._find("nab").values
    ab_a = table_a._find("ab").values
    small_gap = abs(ab_a[0] - nab_a[0])
    big_gap = ab_a[-1] - nab_a[-1]
    out.notes.append(
        f"gap at {hetero_sizes[0]} nodes: {small_gap:.1f}us "
        f"(paper: nearly identical); gap at {hetero_sizes[-1]} nodes: "
        f"{big_gap:.1f}us (paper: ab visibly above nab)")
    out.notes.append(
        "ab latency exceeds nab past small node counts: "
        f"{'yes' if big_gap > small_gap else 'NO'}")
    return out
