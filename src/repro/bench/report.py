"""Plain-text series/table formatting for the experiment drivers.

The experiment modules print the same rows the paper plots: one row per
x-value (skew, node count or message size), one column per (build, message
size) series, plus factor-of-improvement columns — so the shapes in
Figs. 6-10 can be read straight off the terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Series:
    """One plotted line: a label and y-values aligned with the table's x."""

    label: str
    values: list[float] = field(default_factory=list)


class Table:
    """Fixed-width table with an x-column and any number of series."""

    def __init__(self, title: str, x_label: str,
                 x_values: Sequence[float],
                 value_fmt: str = "{:.2f}"):
        self.title = title
        self.x_label = x_label
        self.x_values = list(x_values)
        self.series: list[Series] = []
        self.value_fmt = value_fmt

    def add_series(self, label: str, values: Sequence[float]) -> Series:
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} values for "
                f"{len(self.x_values)} x points")
        s = Series(label, values)
        self.series.append(s)
        return s

    def factor_series(self, label: str, numerator: str,
                      denominator: str) -> Series:
        """Add ``numerator / denominator`` as a factor-of-improvement row."""
        num = self._find(numerator)
        den = self._find(denominator)
        values = [
            (n / d if d else float("nan")) for n, d in zip(num.values,
                                                           den.values)
        ]
        return self.add_series(label, values)

    def _find(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r}")

    def render(self) -> str:
        headers = [self.x_label] + [s.label for s in self.series]
        rows = []
        for i, x in enumerate(self.x_values):
            row = [_fmt_x(x)]
            for s in self.series:
                row.append(self.value_fmt.format(s.values[i]))
            rows.append(row)
        widths = [
            max(len(headers[c]), *(len(r[c]) for r in rows))
            for c in range(len(headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt_x(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:g}"
