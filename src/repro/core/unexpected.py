"""The custom application-bypass unexpected queue (paper Sec. V-A).

Early AB messages — those arriving before the local ``MPI_Reduce`` has built
the matching descriptor — are copied **once** into this queue and later
consumed *directly from it* by the synchronous path, for a total of one copy
instead of the two the default MPICH unexpected path pays (a 50% reduction,
Sec. V-B).  Expected and late AB messages never touch this queue at all and
are combined straight out of the packet buffer (zero copies, a 100%
reduction, Sec. V-C).

Lookups are **dict-indexed**, not scanned: entries are registered under two
indexes at insertion —

* per-sender FIFO (``(src_world, context) -> deque``), serving
  :meth:`take`'s oldest-from-sender rule in O(1);
* exact segment identity (``(src_world, context, instance, seg) -> deque``),
  serving :meth:`take_for`'s segmented match in O(1).

Both keys carry the communicator context: MPI orders collectives per
communicator only, and instance numbers are per context, so two
communicators' reduces from one sender are told apart by nothing else.

The previous implementation scanned one flat list per lookup; at thousands
of ranks with pipelined windows the scans went quadratic.  An entry taken
through either index is flagged ``consumed`` and lazily skipped by the
other, so the two views never disagree.  Semantics are unchanged: per
sender, entries still come out in exact insertion order.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..mpich.message import AbHeader


class AbUnexpectedEntry:
    """One buffered early AB message."""

    __slots__ = ("header", "data", "arrived_at", "consumed")

    def __init__(self, header: AbHeader, data: np.ndarray, arrived_at: float):
        self.header = header
        self.data = data
        self.arrived_at = arrived_at
        #: Set when taken through either index; the other index lazily
        #: drops flagged entries.
        self.consumed = False


class AbUnexpectedQueue:
    """FIFO of early AB messages, matched by (sender, context)."""

    __slots__ = ("_by_sender", "_by_key", "_size",
                 "inserted", "consumed", "max_len")

    def __init__(self) -> None:
        self._by_sender: dict[tuple[int, int], deque[AbUnexpectedEntry]] = {}
        self._by_key: dict[tuple[int, int, int, int],
                           deque[AbUnexpectedEntry]] = {}
        self._size = 0
        self.inserted = 0
        self.consumed = 0
        self.max_len = 0

    def put(self, src_world: int, header: AbHeader, data: np.ndarray,
            arrived_at: float, context: int = 0) -> AbUnexpectedEntry:
        entry = AbUnexpectedEntry(header, data, arrived_at)
        sender = (src_world, context)
        sender_q = self._by_sender.get(sender)
        if sender_q is None:
            sender_q = self._by_sender[sender] = deque()
        sender_q.append(entry)
        key = (src_world, context, header.instance, header.seg)
        key_q = self._by_key.get(key)
        if key_q is None:
            key_q = self._by_key[key] = deque()
        key_q.append(entry)
        self._size += 1
        self.inserted += 1
        if self._size > self.max_len:
            self.max_len = self._size
        return entry

    def _claim(self, entry: AbUnexpectedEntry) -> AbUnexpectedEntry:
        entry.consumed = True
        self._size -= 1
        self.consumed += 1
        return entry

    def take(self, src_world: int,
             context: int = 0) -> Optional[AbUnexpectedEntry]:
        """Oldest entry from ``src_world`` in ``context`` (FIFO per
        sender and context)."""
        queue = self._by_sender.get((src_world, context))
        while queue:
            entry = queue.popleft()
            if not entry.consumed:
                return self._claim(entry)
        return None

    def take_for(self, src_world: int, instance: int, seg: int,
                 context: int = 0) -> Optional[AbUnexpectedEntry]:
        """Exact-match take for a segmented entry (repro.pipeline): the
        per-sender FIFO rule cannot tell two buffered segments of the same
        instance apart, so segmented consumers name the segment (and, with
        tree healing armed, whole-message consumers the instance)."""
        queue = self._by_key.get((src_world, context, instance, seg))
        while queue:
            entry = queue.popleft()
            if not entry.consumed:
                return self._claim(entry)
        return None

    @property
    def empty(self) -> bool:
        return self._size == 0

    def __len__(self) -> int:
        return self._size
