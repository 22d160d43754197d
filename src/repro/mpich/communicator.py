"""Communicators: rank translation and context isolation.

Each communicator owns two context ids, MPICH-style: one for point-to-point
traffic and one for collectives, so user messages can never match collective
internals.  A sub-communicator is a ``Communicator`` over a subset of the
world ranks, built once and shared by its members (``repro.tenancy`` gives
every job one), so concurrent reductions over disjoint or identical rank sets
cannot cross-talk.
"""

from __future__ import annotations

import itertools

from ..errors import MpiError

_context_ids = itertools.count(100, step=2)


def _fresh_context() -> int:
    return next(_context_ids)


class InstanceCounter:
    """Per-collective-context instance numbers for one protocol on one
    rank (:attr:`~repro.mpich.message.AbHeader.instance`).  Every rank
    advances its counter identically because collectives execute in
    program order, so the numbers agree globally without negotiation."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next: dict[int, int] = {}

    def next(self, comm: "Communicator") -> int:
        """Number of this rank's next collective on ``comm``."""
        ctx = comm.coll_context
        instance = self._next.get(ctx, 0)
        self._next[ctx] = instance + 1
        return instance

    def peek(self, comm: "Communicator") -> int:
        """What :meth:`next` will return, without advancing."""
        return self._next.get(comm.coll_context, 0)


class Communicator:
    """A group of world ranks with private matching contexts."""

    __slots__ = ("world_ranks", "size", "_rank_of", "context_id",
                 "pt2pt_context", "coll_context", "name", "interned_steps")

    def __init__(self, world_ranks: tuple[int, ...], name: str = "comm"):
        if len(set(world_ranks)) != len(world_ranks):
            raise MpiError("duplicate ranks in communicator group")
        self.world_ranks = tuple(world_ranks)
        self.size = len(self.world_ranks)
        self._rank_of = {w: i for i, w in enumerate(world_ranks)}
        self.context_id = _fresh_context()
        #: point-to-point traffic and collectives match in separate contexts
        self.pt2pt_context = self.context_id
        self.coll_context = self.context_id + 1
        self.name = name
        #: rank steps by (derive, shape, root, me, nseg) or
        #: (barrier_rank_steps, me), shared by the members (``walk.own_steps``)
        self.interned_steps: dict[tuple, tuple] = {}

    # -- structure -------------------------------------------------------
    def rank_of_world(self, world_rank: int) -> int:
        """Translate a world rank into this communicator's rank."""
        try:
            return self._rank_of[world_rank]
        except KeyError:
            raise MpiError(f"world rank {world_rank} not in {self.name}")

    def world_rank(self, comm_rank: int) -> int:
        """Translate a communicator rank into a world rank."""
        if not (0 <= comm_rank < self.size):
            raise MpiError(f"rank {comm_rank} outside {self.name} "
                           f"(size {self.size})")
        return self.world_ranks[comm_rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator {self.name} size={self.size} ctx={self.context_id}>"


def world_communicator(size: int) -> Communicator:
    """``MPI_COMM_WORLD`` over ranks ``0..size-1``."""
    if size < 1:
        raise MpiError("world size must be >= 1")
    return Communicator(tuple(range(size)), name="world")
