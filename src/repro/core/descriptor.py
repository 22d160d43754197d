"""Reduce descriptors and the descriptor queue (paper Sec. V-A).

A descriptor holds everything the asynchronous side needs to finish a
reduction after ``MPI_Reduce`` has returned: the intermediate result, the
identity of the parent to send the final result to, and the list of children
whose contributions are still pending.  The child list doubles as the
matching key for late messages: an incoming AB packet matches the *oldest*
descriptor of its communicator context still waiting on its sender, which is
correct because GM delivers in order between any pair of endpoints and all
ranks execute one communicator's collectives in the same order.  (MPI orders
collectives per communicator only: two ranks may reduce on two communicators
in opposite orders, so the sender alone is not a key.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AbProtocolError
from ..mpich.operations import Op


class ReduceDescriptor:
    """State of one in-flight application-bypass reduction instance."""

    __slots__ = ("context_id", "root_world", "instance", "parent_world",
                 "children_world", "op", "acc", "tag", "_pending",
                 "created_at", "removed", "comm", "shape", "root", "size",
                 "rel", "timeout_event", "seg", "nseg", "on_complete")

    def __init__(self, context_id: int, root_world: int, instance: int,
                 parent_world: int, children_world: list[int], op: Op,
                 acc: np.ndarray, tag: int, created_at: float, *,
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
        self.tag = tag
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
        #: Segment identity (repro.pipeline): index within the instance and
        #: total segment count.  ``seg == -1`` marks a whole-message
        #: descriptor and keeps every legacy code path byte-identical.
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
    """FIFO of outstanding descriptors, matched by (sender, context)."""

    __slots__ = ("_entries", "enqueued", "dequeued", "max_len")

    def __init__(self) -> None:
        self._entries: list[ReduceDescriptor] = []
        self.enqueued = 0
        self.dequeued = 0
        self.max_len = 0

    def push(self, desc: ReduceDescriptor) -> None:
        self._entries.append(desc)
        self.enqueued += 1
        self.max_len = max(self.max_len, len(self._entries))

    def match(self, sender_world: int,
              context_id: int) -> Optional[ReduceDescriptor]:
        """Oldest descriptor of ``context_id`` still waiting on
        ``sender_world``."""
        for desc in self._entries:
            if desc.context_id == context_id and desc.is_pending(sender_world):
                return desc
        return None

    def match_segment(self, sender_world: int, context_id: int,
                      instance: int, seg: int
                      ) -> Optional[ReduceDescriptor]:
        """Exact match for a segmented packet (repro.pipeline).

        The FIFO rule of :meth:`match` assumes one descriptor per
        (sender, instance); a pipelined instance keeps a *window* of
        per-segment descriptors open at once — and a later instance may
        open its window while an earlier one still has stragglers — so
        segmented packets carry their (instance, seg) identity and are
        matched on it exactly.  With tree healing armed whole messages
        (``seg == -1``) are matched this way too: a heal can leave an older
        descriptor pending on a sender that will never serve it.
        """
        for desc in self._entries:
            if (desc.seg == seg and desc.instance == instance
                    and desc.context_id == context_id
                    and desc.is_pending(sender_world)):
                return desc
        return None

    def remove(self, desc: ReduceDescriptor) -> None:
        if desc.removed:
            raise AbProtocolError(
                f"descriptor {desc.instance} removed twice")
        try:
            self._entries.remove(desc)
        except ValueError:
            raise AbProtocolError(
                f"descriptor {desc.instance} not in queue")
        desc.removed = True
        self.dequeued += 1

    @property
    def empty(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)
