"""The one sweep-then-tabulate primitive behind every experiment driver.

Every figure of the paper — and every beyond-paper grid — is one
microbenchmark swept over a few named axes (build, message size, node
count, skew, topology, ...).  Each grid cell is one independent,
bit-deterministic simulator run, so a driver declares its axes **once**:

    cells = sweep({"build": BUILD_TAGS, "elements": sizes, "skew": skews},
                  lambda build, elements, skew: SweepPoint(...),
                  jobs=jobs, progress=progress)

:func:`sweep` submits the cells' points in the product order of the axes
(first axis slowest — the order BENCH json and the progress lines keep)
through :func:`~repro.orchestrate.runner.run_points`, serially for
``jobs=1`` and over worker processes otherwise with identical metrics
either way, and hands back :class:`Cells`: the results addressed **by
axis value**, never by position, so reordering a loop in the tabulation
cannot mislabel a series.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Optional, Sequence

from ..orchestrate.points import PointResult, SweepPoint, grid_cells
from ..orchestrate.runner import run_points
from .report import Table


class Cells:
    """One executed grid: ``cells[topo, build]`` is the
    :class:`PointResult` of the cell with those axis values (given in the
    axes' declaration order), ``cells.points`` every result in submission
    order — the payload of ``BENCH_<name>.json``."""

    def __init__(self, axes: Mapping[str, Sequence], index: dict,
                 points: list[PointResult]):
        self.axes = {name: tuple(values) for name, values in axes.items()}
        self._index = index
        self.points = points

    def __getitem__(self, cell) -> PointResult:
        cell = cell if isinstance(cell, tuple) else (cell,)
        try:
            return self._index[cell]
        except KeyError:
            raise KeyError(
                f"no cell {dict(zip(self.axes, cell))} in this grid (axes "
                f"{list(self.axes)}): outside the axes or skipped by "
                f"make()") from None

    def series(self, metric: str, *, along: str, **fixed) -> list[float]:
        """``metric`` at every value of the ``along`` axis, every other
        axis pinned by name in ``fixed``."""
        if set(fixed) | {along} != set(self.axes) or along in fixed:
            raise ValueError(
                f"series(along={along!r}, {', '.join(fixed) or '-'}) must "
                f"pin every axis but one of {list(self.axes)} by name")
        return [self[tuple(x if name == along else fixed[name]
                           for name in self.axes)].metrics[metric]
                for x in self.axes[along]]

    def fill(self, table: Table, metric: str, *, along: str, label: str,
             **pinned) -> None:
        """Add to ``table`` one ``metric`` series along ``along`` per
        combination of the axes not ``pinned`` (in declaration order),
        each labelled ``label.format(**cell)``."""
        free = [name for name in self.axes
                if name != along and name not in pinned]
        for combo in itertools.product(*(self.axes[n] for n in free)):
            cell = {**pinned, **dict(zip(free, combo))}
            table.add_series(label.format(**cell),
                             self.series(metric, along=along, **cell))

    def violations(self) -> int:
        """Invariant violations reported across the grid (points that ran
        without ``collect_invariants`` report none)."""
        return sum((r.invariant_report or {}).get("violation_count", 0)
                   for r in self.points)


def sweep(axes: Mapping[str, Sequence],
          make: Callable[..., Optional[SweepPoint]], *, jobs: int = 1,
          progress: Optional[Callable[[str], None]] = None) -> Cells:
    """Run the grid ``axes`` declares: ``make(**cell)`` builds each cell's
    point (``None`` skips it), walked and validated by
    :func:`~repro.orchestrate.points.grid_cells` as every CI grid is."""
    kept = grid_cells(axes, make)
    results = run_points([point for _cell, point in kept], jobs=jobs,
                         progress=progress)
    index = {cell: res for (cell, _point), res in zip(kept, results)}
    return Cells(axes, index, results)


def build_by_size_table(cells: Cells, title: str, x_label: str, *,
                        along: str) -> Table:
    """The Fig. 6-8 layout over a (build, elements, ``along``) grid: one
    ``<build>-<elements>`` CPU-utilization series per build and message
    size, then the factor of improvement (nab / ab) per message size."""
    table = Table(title, x_label, cells.axes[along])
    cells.fill(table, "avg_util_us", along=along, label="{build}-{elements}")
    for elements in cells.axes["elements"]:
        table.factor_series(f"factor-{elements}", f"nab-{elements}",
                            f"ab-{elements}")
    return table
