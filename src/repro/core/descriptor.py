"""Reduce descriptors and the descriptor queue (paper Sec. V-A).

A descriptor holds everything the asynchronous side needs to finish a
reduction after ``MPI_Reduce`` has returned: the intermediate result, the
identity of the parent to send the final result to (None at a split-phase
root, which keeps the result), and the list of children whose contributions
are still pending.

The matching rule (DESIGN.md §6.10): an AB packet feeds the descriptor
with the ``(context, instance, seg)`` it carries, if its sender is still
pending there, and is otherwise an early arrival for
:mod:`repro.core.unexpected`.  A rank holds one descriptor per identity.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AbProtocolError
from ..mpich.operations import Op


class ReduceDescriptor:
    """State of one in-flight application-bypass reduction instance."""

    __slots__ = ("context_id", "root_world", "instance", "parent_world",
                 "children_world", "op", "acc", "_pending",
                 "created_at", "removed", "comm", "shape", "root", "size",
                 "rel", "timeout_event", "seg", "nseg", "on_complete")

    def __init__(self, context_id: int, root_world: int, instance: int,
                 parent_world: Optional[int], children_world: list[int], op: Op,
                 acc: np.ndarray, created_at: float, *,
                 comm=None, shape=None, root=None, size=None, rel=None,
                 seg: int = -1, nseg: int = 1, on_complete=None):
        if not children_world:
            raise AbProtocolError("descriptor for a node with no children "
                                  "(leaves use the plain send path)")
        self.context_id = context_id
        self.root_world = root_world
        self.instance = instance
        self.parent_world = parent_world
        self.children_world = list(children_world)
        self.op = op
        self.acc = acc
        self._pending = set(children_world)
        self.created_at = created_at
        self.removed = False
        #: Tree context for fault recovery (repro.faults tree_heal): with
        #: these the engine can recompute live subtrees after a crash.
        #: All None on fault-free descriptors (and in direct-construction
        #: unit tests).
        self.comm = comm
        self.shape = shape
        self.root = root
        self.size = size
        self.rel = rel
        #: Pending recovery-timer event, cancelled on completion so a
        #: defunct timer never stretches the simulation's makespan.
        self.timeout_event = None
        #: Segment index within the instance (``-1``: a whole message) —
        #: the third part of the matching identity — and the instance's
        #: segment count, which only trace records read.
        self.seg = seg
        self.nseg = nseg
        #: Called once by the engine right after this descriptor is removed
        #: (before the queue-drained/signal check, so a callback that opens
        #: the next segment's descriptor keeps signals armed).  Used by the
        #: pipeline window to advance without the application on the CPU.
        self.on_complete = on_complete

    # ------------------------------------------------------------------
    def is_pending(self, child_world: int) -> bool:
        return child_world in self._pending

    def adopt(self, dead_child_world: int, adopted_worlds: list[int]) -> None:
        """Replace a crashed pending child with its live descendants.

        The dead child's slot is dropped; each adopted rank not already a
        child becomes pending.  The caller re-checks :attr:`complete` (the
        crashed child may have had no live descendants).
        """
        self._pending.discard(dead_child_world)
        self.children_world = [c for c in self.children_world
                               if c != dead_child_world]
        for world in adopted_worlds:
            if world not in self.children_world:
                self.children_world.append(world)
                self._pending.add(world)

    def pending_children(self) -> list[int]:
        """Pending children in original (mask) order."""
        return [c for c in self.children_world if c in self._pending]

    def mark_done(self, child_world: int) -> None:
        try:
            self._pending.remove(child_world)
        except KeyError:
            raise AbProtocolError(
                f"child {child_world} already handled for instance "
                f"{self.instance}")

    @property
    def complete(self) -> bool:
        return not self._pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReduceDescriptor inst={self.instance} root={self.root_world} "
                f"parent={self.parent_world} pending={sorted(self._pending)}>")


class DescriptorQueue:
    """Outstanding descriptors, keyed by ``(context, instance, seg)``."""

    __slots__ = ("_entries", "enqueued", "dequeued", "max_len")

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int, int], ReduceDescriptor] = {}
        self.enqueued = 0
        self.dequeued = 0
        self.max_len = 0

    def push(self, desc: ReduceDescriptor) -> None:
        key = (desc.context_id, desc.instance, desc.seg)
        if key in self._entries:
            raise AbProtocolError(f"descriptor {key} already queued")
        self._entries[key] = desc
        self.enqueued += 1
        self.max_len = max(self.max_len, len(self._entries))

    def match(self, sender_world: int, context_id: int, instance: int,
              seg: int) -> Optional[ReduceDescriptor]:
        """The descriptor a packet with this identity feeds, if it still
        waits on ``sender_world``."""
        desc = self._entries.get((context_id, instance, seg))
        if desc is None or not desc.is_pending(sender_world):
            return None
        return desc

    def remove(self, desc: ReduceDescriptor) -> None:
        if desc.removed:
            raise AbProtocolError(
                f"descriptor {desc.instance} removed twice")
        key = (desc.context_id, desc.instance, desc.seg)
        if self._entries.get(key) is not desc:
            raise AbProtocolError(
                f"descriptor {desc.instance} not in queue")
        del self._entries[key]
        desc.removed = True
        self.dequeued += 1

    @property
    def empty(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)
