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
from ..bench.sweep import Cells, sweep
from ..mpich.rank import BUILD_TAGS
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
        iterations: int, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    common = dict(iterations=iterations, seed=seed, jobs=jobs,
                  progress=progress)
    table_a, cells_a = _panel("9a", "paper", "heterogeneous", hetero_sizes,
                              **common)
    table_b, cells_b = _panel("9b", "homogeneous", "homogeneous 700MHz",
                              homo_sizes, **common)
    out = ExperimentOutput("fig9", [table_a, table_b],
                           points=cells_a.points + cells_b.points)

    tables = {"9a": table_a, "9b": table_b}
    nab = {panel: table._find("nab").values for panel, table in tables.items()}
    ab = {panel: table._find("ab").values for panel, table in tables.items()}
    out.claim("latency grows with node count on both builds and both "
              "clusters",
              all(v[-1] > v[0] for v in (*nab.values(), *ab.values())))
    first = {panel: ab[panel][0] - nab[panel][0] for panel in tables}
    last = {panel: ab[panel][-1] - nab[panel][-1] for panel in tables}
    out.claim(f"nearly identical at {hetero_sizes[0]} nodes: ab-nab gap "
              + ", ".join(f"{g:.1f}us ({panel})" for panel, g in first.items())
              + ", under 6us (paper: nearly identical)",
              all(abs(g) < 6.0 for g in first.values()))
    out.claim("ab visibly above nab at the largest size: gap "
              + ", ".join(f"{g:.1f}us ({panel})" for panel, g in last.items())
              + ", above 3us and above the smallest size's gap",
              all(last[panel] > max(3.0, first[panel]) for panel in tables))
    out.claim(f"9a nab latency at {hetero_sizes[-1]} nodes: "
              f"{nab['9a'][-1]:.1f}us, within 50-150us (paper: near "
              "110-120us)", 50.0 < nab["9a"][-1] < 150.0)
    if 4 in homo_sizes:
        at4 = list(homo_sizes).index(4)
        gap = ab["9b"][at4] - nab["9b"][at4]
        out.notes.append(
            f"deviation: at 4 nodes (9b) ab is {gap:+.1f}us against nab "
            "where the paper has it slightly better; the "
            "natural-skew model still sends an occasional child down the "
            "interrupt path at 4 nodes")
    return out
