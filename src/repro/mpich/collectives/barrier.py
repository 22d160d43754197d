"""Dissemination barrier.

``ceil(log2 n)`` rounds; in round *k* each rank sends a zero-byte token to
``(me + 2^k) mod n`` and waits for one from ``(me - 2^k) mod n``.  All
distances are distinct modulo ``n``, and per-pair FIFO delivery keeps
back-to-back barriers correctly paired without per-round tags.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..communicator import Communicator
from ..message import TAG_BARRIER

_TOKEN = np.empty(0, dtype=np.uint8)


def barrier_dissemination(rank, comm: Communicator,
                          tag: int = TAG_BARRIER) -> Generator:
    """Block until every rank in ``comm`` has entered the barrier."""
    size = comm.size
    if size == 1:
        return
    me = comm.rank_of_world(rank.rank)
    rounds = (size - 1).bit_length()
    for k in range(rounds):
        dist = 1 << k
        dst = (me + dist) % size
        src = (me - dist) % size
        recv_req = yield from rank.irecv(None, src, tag, comm,
                                         _context=comm.coll_context)
        send_req = yield from rank.isend(_TOKEN, dst, tag, comm,
                                         _context=comm.coll_context)
        # The eager token send is complete on return and the receive often
        # is: a finished request needs no wait generator.
        if not send_req.done:
            yield from rank.progress.wait(send_req)
        if not recv_req.done:
            yield from rank.progress.wait(recv_req)
