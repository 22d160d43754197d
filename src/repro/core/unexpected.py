"""The custom application-bypass unexpected queue (paper Sec. V-A).

Early AB messages — those arriving before the local ``MPI_Reduce`` has built
the matching descriptor — are copied **once** into this queue and later
consumed *directly from it* by the synchronous path, for a total of one copy
instead of the two the default MPICH unexpected path pays (a 50% reduction,
Sec. V-B).  Expected and late AB messages never touch this queue at all and
are combined straight out of the packet buffer (zero copies, a 100%
reduction, Sec. V-C).

Entries wait in arrival order in one deque per ``(sender, context)``,
deleted once empty.  A descriptor takes the entry with its own identity
(:meth:`take_for`, the rule of :mod:`repro.core.descriptor`), scanning
from the head, where that entry sits in every healthy run.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..mpich.message import AbHeader


class AbUnexpectedEntry:
    """One buffered early AB message."""

    __slots__ = ("header", "data", "arrived_at")

    def __init__(self, header: AbHeader, data: np.ndarray, arrived_at: float):
        self.header = header
        self.data = data
        self.arrived_at = arrived_at


class AbUnexpectedQueue:
    """Early AB messages in arrival order per (sender, context)."""

    __slots__ = ("_by_sender", "_size", "inserted", "consumed", "max_len")

    def __init__(self) -> None:
        self._by_sender: dict[tuple[int, int], deque[AbUnexpectedEntry]] = {}
        self._size = 0
        self.inserted = 0
        self.consumed = 0
        self.max_len = 0

    def put(self, src_world: int, header: AbHeader, data: np.ndarray,
            arrived_at: float, context: int = 0) -> AbUnexpectedEntry:
        entry = AbUnexpectedEntry(header, data, arrived_at)
        key = (src_world, context)
        queue = self._by_sender.get(key)
        if queue is None:
            queue = self._by_sender[key] = deque()
        queue.append(entry)
        self._size += 1
        self.inserted += 1
        if self._size > self.max_len:
            self.max_len = self._size
        return entry

    def _claim(self, key: tuple[int, int], queue: deque,
               entry: AbUnexpectedEntry) -> AbUnexpectedEntry:
        if not queue:
            del self._by_sender[key]
        self._size -= 1
        self.consumed += 1
        return entry

    def take(self, src_world: int,
             context: int = 0) -> Optional[AbUnexpectedEntry]:
        """Oldest entry from ``src_world`` in ``context``."""
        key = (src_world, context)
        queue = self._by_sender.get(key)
        if queue is None:
            return None
        return self._claim(key, queue, queue.popleft())

    def take_for(self, src_world: int, instance: int, seg: int,
                 context: int = 0) -> Optional[AbUnexpectedEntry]:
        """The entry from ``src_world`` carrying the identity
        ``(context, instance, seg)``."""
        key = (src_world, context)
        queue = self._by_sender.get(key)
        if queue is None:
            return None
        for i, entry in enumerate(queue):
            header = entry.header
            if header.instance == instance and header.seg == seg:
                del queue[i]
                return self._claim(key, queue, entry)
        return None

    @property
    def empty(self) -> bool:
        return self._size == 0

    def __len__(self) -> int:
        return self._size
