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

* per-sender FIFO (``src_world -> deque``), serving :meth:`take`'s
  oldest-from-sender rule in O(1);
* exact segment identity (``(src_world, instance, seg) -> deque``), serving
  :meth:`take_for`'s segmented match in O(1).

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
from ..sim import access


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
    """FIFO of early AB messages, matched by sender.

    Access-traced like :class:`~repro.core.descriptor.DescriptorQueue`:
    the per-sender FIFO take rule makes insertion order meaningful, so
    same-timestamp puts/takes from unordered events are latent schedule
    races the happens-before checker must see.
    """

    __slots__ = ("_by_sender", "_by_key", "_size",
                 "inserted", "consumed", "max_len", "owner")

    def __init__(self) -> None:
        self._by_sender: dict[int, deque[AbUnexpectedEntry]] = {}
        self._by_key: dict[tuple[int, int, int],
                           deque[AbUnexpectedEntry]] = {}
        self._size = 0
        self.inserted = 0
        self.consumed = 0
        self.max_len = 0
        #: World rank of the owning engine (None in raw unit tests).
        self.owner: Optional[int] = None

    def put(self, src_world: int, header: AbHeader, data: np.ndarray,
            arrived_at: float) -> AbUnexpectedEntry:
        if access.TRACER is not None:
            access.trace(access.WRITE, ("ab_unexpected", self.owner),
                         note=f"put src={src_world} "
                              f"inst={header.instance} seg={header.seg}")
        entry = AbUnexpectedEntry(header, data, arrived_at)
        sender_q = self._by_sender.get(src_world)
        if sender_q is None:
            sender_q = self._by_sender[src_world] = deque()
        sender_q.append(entry)
        key = (src_world, header.instance, header.seg)
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

    def take(self, src_world: int) -> Optional[AbUnexpectedEntry]:
        """Oldest entry from ``src_world`` (FIFO per sender)."""
        if access.TRACER is not None:
            access.trace(access.WRITE, ("ab_unexpected", self.owner),
                         note=f"take src={src_world}")
        queue = self._by_sender.get(src_world)
        while queue:
            entry = queue.popleft()
            if not entry.consumed:
                return self._claim(entry)
        return None

    def take_for(self, src_world: int, instance: int,
                 seg: int) -> Optional[AbUnexpectedEntry]:
        """Exact-match take for a segmented entry (repro.pipeline): the
        per-sender FIFO rule cannot tell two buffered segments of the same
        instance apart, so segmented consumers name the segment (and, with
        tree healing armed, whole-message consumers the instance)."""
        if access.TRACER is not None:
            access.trace(access.WRITE, ("ab_unexpected", self.owner),
                         note=f"take_for src={src_world} inst={instance} "
                              f"seg={seg}")
        queue = self._by_key.get((src_world, instance, seg))
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
