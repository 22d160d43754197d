"""Neighbor plans injected by the schedule interpreter.

A :class:`CollectivePlan` carries what a
:class:`~repro.schedule.ir.Schedule` resolved for one rank's reduce phase,
so the AB engine and pipeline can run schedule-driven collectives without
re-deriving the tree from config: the (parent, children) world ranks a
bypassing rank builds its descriptors from, and the schedule itself for the
root, which cannot bypass and walks its steps on the host.  When tree
healing is active the engines ignore the neighbors and recompute from the
healed tree — fault behavior always wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..schedule.ir import Schedule


@dataclass(frozen=True)
class CollectivePlan:
    """Resolved reduce-phase neighbors (world ranks) for one rank, and the
    schedule they came from; ``parent_world`` is None at the root."""

    parent_world: Optional[int]
    children_world: Tuple[int, ...] = ()
    schedule: Optional[Schedule] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "children_world",
                           tuple(self.children_world))
