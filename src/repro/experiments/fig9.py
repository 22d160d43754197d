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

from ..bench.sweep import latency_vs_nodes
from ..orchestrate.points import ConfigSpec
from .common import ExperimentOutput

HETERO_SIZES = (2, 4, 8, 16, 32)
HOMO_SIZES = (2, 4, 8, 16)


def run(*, hetero_sizes: Sequence[int] = HETERO_SIZES,
        homo_sizes: Sequence[int] = HOMO_SIZES,
        iterations: int = 150, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    sweep_a = latency_vs_nodes(
        lambda n: ConfigSpec("paper", n, seed),
        sizes=hetero_sizes, elements=1, iterations=iterations, jobs=jobs,
        experiment="fig9a", progress=progress)
    table_a = sweep_a.table
    table_a.title = "Fig 9a: " + table_a.title + " [heterogeneous]"
    sweep_b = latency_vs_nodes(
        lambda n: ConfigSpec("homogeneous", n, seed),
        sizes=homo_sizes, elements=1, iterations=iterations, jobs=jobs,
        experiment="fig9b", progress=progress)
    table_b = sweep_b.table
    table_b.title = "Fig 9b: " + table_b.title + " [homogeneous 700MHz]"
    out = ExperimentOutput("fig9", [table_a, table_b],
                           points=sweep_a.points + sweep_b.points)

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
