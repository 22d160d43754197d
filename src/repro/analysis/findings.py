"""Shared result types for the static-analysis layer.

A :class:`Finding` is one linter diagnostic; a :class:`Violation` is one
runtime protocol-invariant breach recorded by
:class:`repro.analysis.invariants.InvariantMonitor`.  Both are plain data
so they serialize to JSON for reports and CI output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import PurePath
from typing import Any, Optional


def normalize_path(path: Any) -> str:
    """Location-independent path key: everything from the last ``repro``
    package component on, else the basename.

    This makes the path-scoped rules see the same file whether the tree
    is linted as ``src/repro/...``, an installed copy, or a test scratch
    directory that mirrors the package layout.
    """
    parts = PurePath(path).as_posix().split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return parts[-1]


@dataclass(frozen=True)
class Finding:
    """One linter diagnostic at a specific source location."""

    rule: str
    path: str              # normalized (see normalize_path)
    line: int
    col: int
    message: str
    #: The source line, where a ``# simlint: ignore[...]`` pragma is read.
    line_text: str = ""

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Violation:
    """One runtime protocol-invariant breach."""

    invariant: str
    node: Optional[int]
    time: float
    detail: str
    context: dict = field(default_factory=dict)

    def render(self) -> str:
        where = "cluster" if self.node is None else f"node {self.node}"
        return (f"[{self.invariant}] t={self.time:.3f}us {where}: "
                f"{self.detail}")

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "node": self.node,
            "time": self.time,
            "detail": self.detail,
            "context": dict(self.context),
        }
