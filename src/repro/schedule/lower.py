"""Lowerings: emit a :class:`~repro.schedule.ir.Schedule` from a tree shape.

Every lowering has the signature ``(shape, size, *, root=0, nseg=0)`` where
``shape`` is a :class:`repro.topo.trees.TreeShape`, ``size`` the communicator
size and ``nseg`` the number of pipeline segments (``0`` = whole message).
Child order follows ``shape.children`` for reduce phases and *reversed*
children for broadcast forwarding; segments are walked seg-major.

A lowering is a per-rank function ``(parent, kids, segs) -> steps`` run by
one driver (:func:`_schedule`) over every rank's :func:`repro.topo.ranks.family`.
An ``mpi.<collective>`` call runs the same per-rank function
(:func:`reduce_rank_steps`, :func:`ab_reduce_rank_steps`,
:func:`bcast_rank_steps`, :func:`pipelined_rank_steps`) for its own rank only
(:func:`repro.mpich.collectives.walk.own_steps`), so it and the interpreter
executing the matching lowering run the same steps.  Anything a rank does
per call is therefore O(its own steps); only :func:`lower` is O(all steps).
``mpi.barrier`` walks the unregistered :func:`barrier_rank_steps`.

Registered lowerings:

``reduce.nab``
    Host-level tree reduce (blocking recv+fold per child), whole or
    seg-major segmented — what ``reduce_nab`` walks.
``reduce.ab``
    Application-bypass reduce: internal ranks post one NIC descriptor
    (:class:`WaitStep`) per segment, leaves just send; the root folds on the
    host exactly like ``reduce.nab``.
``bcast.tree``
    Tree broadcast with reversed-child forwarding — what ``bcast_binomial``
    walks; the AB broadcaster forwards in the same order.
``allreduce.reduce_bcast``
    Sequential nab reduce-to-root followed by tree bcast.
``allreduce.ab``
    Sequential AB reduce followed by tree bcast.
``allreduce.pipelined``
    Träff-style overlap: the root interleaves per-segment fold and
    re-broadcast; other ranks run the segmented AB reduce then the segmented
    bcast.  Requires ``nseg >= 2``.
``allreduce.pap_sorted``
    Proficz's sorted-arrival (SRA) allreduce: the tree positions are
    assigned by arrival order — earliest arrivals sit deepest, the latest
    arrival becomes the root — so subtree reductions complete while the
    stragglers are still computing.  Takes ``order=`` (earliest rank
    first, from the workload layer's arrival oracle).
``allreduce.pap_prereduced``
    Proficz's pre-reduced (PRA) allreduce: a reduction *chain* in arrival
    order — each arriving rank eagerly folds the running partial sum and
    forwards it to the next arrival; the last arrival finishes the sum,
    becomes the root and tree-broadcasts the result.
"""

from __future__ import annotations

import inspect
import operator
from typing import Callable, Dict, List

from ..topo import ranks
from ..topo.trees import TreeShape
from .ir import (BcastStep, FoldStep, RecvStep, Schedule, ScheduleError,
                 SendStep, WaitStep)

LOWERINGS: Dict[str, Callable[..., Schedule]] = {}


def register_lowering(name: str):
    """Class/function decorator adding a lowering to :data:`LOWERINGS`."""

    def deco(fn):
        if name in LOWERINGS:
            raise ScheduleError("duplicate lowering %r" % (name,))
        LOWERINGS[name] = fn
        # What lower() may forward besides root= and nseg=, read off the
        # signature once so a misspelt keyword is refused by name.
        fn.lowering_options = frozenset(
            p.name for p in inspect.signature(fn).parameters.values()
            if p.kind is p.KEYWORD_ONLY) - {"root", "nseg"}
        return fn

    return deco


def lower(name: str, shape: TreeShape, size: int, *, root: int = 0,
          nseg: int = 0, **kwargs) -> Schedule:
    """Emit a schedule with the named lowering.

    Extra keyword arguments are forwarded to the lowering (the PAP-aware
    lowerings take ``order=``, the arrival order from the workload layer);
    one the lowering does not take is a :class:`ScheduleError`.
    """
    try:
        fn = LOWERINGS[name]
    except KeyError:
        raise ScheduleError(
            "unknown lowering %r (have: %s)"
            % (name, ", ".join(sorted(LOWERINGS)))) from None
    unknown = sorted(set(kwargs) - fn.lowering_options)
    if unknown:
        raise ScheduleError(
            "lowering %r takes no %s= argument (it takes: %s)"
            % (name, "=, ".join(unknown),
               ", ".join(["root", "nseg"] + sorted(fn.lowering_options))))
    return fn(shape, size, root=root, nseg=nseg, **kwargs)


def _check(shape: TreeShape, size: int, root: int, nseg: int) -> None:
    if size < 1:
        raise ScheduleError("size must be >= 1")
    if not (0 <= root < size):
        raise ScheduleError("root %d out of range for size %d" % (root, size))
    if nseg < 0 or nseg == 1:
        raise ScheduleError("nseg must be 0 (whole message) or >= 2")


def seg_ids(nseg: int):
    """Segment ids of an ``nseg``-segment plan (``-1`` = whole message)."""
    return range(nseg) if nseg else (-1,)


# ---------------------------------------------------------------------------
# per-rank steps: (parent, kids, segs) -> this rank's ordered steps
# ---------------------------------------------------------------------------

def reduce_rank_steps(parent, kids, segs=(-1,)) -> List:
    """Host reduce: per segment, recv+fold each child, then send up."""
    steps: List = []
    for s in segs:
        for c in kids:
            steps.append(RecvStep(c, s))
            steps.append(FoldStep(c, s))
        if parent is not None:
            steps.append(SendStep(parent, s))
    return steps


def bcast_rank_steps(parent, kids, segs=(-1,)) -> List:
    """Tree bcast: per segment, recv from the parent, forward to the
    children deepest subtree first."""
    rkids = list(reversed(kids))
    steps: List = []
    for s in segs:
        if parent is not None:
            steps.append(BcastStep(parent, "recv", s))
        for c in rkids:
            steps.append(BcastStep(c, "send", s))
    return steps


def ab_reduce_rank_steps(parent, kids, segs) -> List:
    """AB reduce: internal ranks post one NIC descriptor per segment and
    leaves just send; the root folds on the host like ``reduce.nab``."""
    if parent is None or not kids:
        return reduce_rank_steps(parent, kids, segs)
    kids = tuple(kids)
    steps: List = []
    for s in segs:
        steps.append(WaitStep(kids, s))
        steps.append(SendStep(parent, s))
    return steps


def pipelined_rank_steps(parent, kids, segs) -> List:
    """Pipelined allreduce: segmented AB reduce then segmented bcast; the
    root interleaves the two per segment."""
    if parent is not None:
        return (ab_reduce_rank_steps(parent, kids, segs)
                + bcast_rank_steps(parent, kids, segs))
    # Root: fold segment k, immediately re-broadcast it — the overlap that
    # keeps both reduce and bcast links busy.
    steps: List = []
    for s in segs:
        steps += reduce_rank_steps(None, kids, (s,))
        steps += bcast_rank_steps(None, kids, (s,))
    return steps


def barrier_rank_steps(me: int, size: int) -> List:
    """Dissemination barrier: round *k* takes a token from ``me - 2^k`` and
    sends one to ``me + 2^k`` (mod ``size``), send first (receive rule)."""
    return [step for k in range((size - 1).bit_length())
            for step in (RecvStep((me - (1 << k)) % size),
                         SendStep((me + (1 << k)) % size))]


def _then_bcast(reduce_steps):
    """Sequential allreduce: ``reduce_steps`` to the root, then tree bcast."""
    return lambda parent, kids, segs: (reduce_steps(parent, kids, segs)
                                       + bcast_rank_steps(parent, kids, segs))


def _schedule(collective: str, name: str, size: int, root: int, nseg: int,
              meta: tuple, rank_steps: Callable) -> Schedule:
    """The one per-rank driver: ``rank_steps(me, segs)`` for every rank."""
    segs = seg_ids(nseg)
    return Schedule(collective, name, size, root, nseg, meta=meta,
                    steps=tuple(tuple(rank_steps(me, segs))
                                for me in range(size)))


def _meta(shape: TreeShape) -> tuple:
    return (("shape", shape.name),)


def _tree_lowering(name: str, rank_steps: Callable, min_nseg: int = 0) -> None:
    """Register ``name``: ``rank_steps`` over every rank's family in the
    ``shape`` tree rooted at ``root``."""

    @register_lowering(name)
    def lowering(shape: TreeShape, size: int, *, root: int = 0,
                 nseg: int = 0) -> Schedule:
        _check(shape, size, root, nseg)
        if nseg < min_nseg:
            raise ScheduleError("%s requires nseg >= %d" % (name, min_nseg))
        return _schedule(
            name.split(".")[0], name, size, root, nseg, _meta(shape),
            lambda me, segs: rank_steps(*ranks.family(shape, size, root, me),
                                        segs))


_tree_lowering("reduce.nab", reduce_rank_steps)
_tree_lowering("reduce.ab", ab_reduce_rank_steps)
_tree_lowering("bcast.tree", bcast_rank_steps)
_tree_lowering("allreduce.reduce_bcast", _then_bcast(reduce_rank_steps))
_tree_lowering("allreduce.ab", _then_bcast(ab_reduce_rank_steps))
_tree_lowering("allreduce.pipelined", pipelined_rank_steps, min_nseg=2)


# ---------------------------------------------------------------------------
# PAP-aware allreduce (Proficz, arXiv:1804.05349)
# ---------------------------------------------------------------------------


def _check_order(order, size: int) -> tuple:
    """Normalise an arrival order (earliest rank first) to a permutation."""
    if order is None:
        return tuple(range(size))
    try:
        order = tuple(operator.index(r) for r in order)
    except TypeError:
        raise ScheduleError(
            "order must be a sequence of integer ranks, got %r"
            % (order,)) from None
    if sorted(order) != list(range(size)):
        raise ScheduleError(
            "order must be a permutation of 0..%d, got %r" % (size - 1, order))
    return order


def _pap_meta(shape: TreeShape, order: tuple) -> tuple:
    # The order rides in meta as a string so the schedule stays a flat,
    # JSON-stable value.
    return _meta(shape) + (("order", ",".join(str(r) for r in order)),)


@register_lowering("allreduce.pap_sorted")
def lower_allreduce_pap_sorted(shape: TreeShape, size: int, *, root: int = 0,
                               nseg: int = 0, order=None) -> Schedule:
    """Sorted-arrival (SRA) allreduce: late arrivals sit high in the tree.

    Tree positions are ranked by depth; the earliest-arriving rank takes
    the deepest position and the latest arrival takes position 0 (the
    root), so every subtree below a straggler is already reduced by the
    time it shows up.  ``root`` selects the shape's rotation only when no
    ``order`` is given (the legacy identity-order behaviour); with an
    order, placement *is* the mapping and the emitted root is the latest
    arrival.
    """
    _check(shape, size, root, nseg)
    order = _check_order(order, size)
    depth = [shape.depth(pos, size) for pos in range(size)]
    by_depth = sorted(range(size), key=lambda p: (-depth[p], p))
    rank_at_pos = [0] * size
    for arrival, pos in enumerate(by_depth):
        rank_at_pos[pos] = order[arrival]
    pos_of_rank = {r: p for p, r in enumerate(rank_at_pos)}

    def rank_steps(me, segs):
        pos = pos_of_rank[me]
        parent = (None if pos == 0
                  else rank_at_pos[shape.parent(pos, size)])
        kids = [rank_at_pos[c] for c in shape.children(pos, size)]
        return (reduce_rank_steps(parent, kids, segs)
                + bcast_rank_steps(parent, kids, segs))

    return _schedule("allreduce", "allreduce.pap_sorted", size,
                     rank_at_pos[0], nseg, _pap_meta(shape, order),
                     rank_steps)


@register_lowering("allreduce.pap_prereduced")
def lower_allreduce_pap_prereduced(shape: TreeShape, size: int, *,
                                   root: int = 0, nseg: int = 0,
                                   order=None) -> Schedule:
    """Pre-reduced (PRA) allreduce: eager chain in arrival order.

    Each rank folds the partial sum of everyone who arrived before it and
    forwards the result to the next arrival, so all reduction work except
    one fold is done before the last rank arrives.  The last arrival
    completes the sum, becomes the root and tree-broadcasts (``shape``
    only affects the broadcast tree).
    """
    _check(shape, size, root, nseg)
    order = _check_order(order, size)
    chain_root = order[-1]
    nxt = {order[i]: order[i + 1] for i in range(size - 1)}
    prev = {order[i]: order[i - 1] for i in range(1, size)}

    def rank_steps(me, segs):
        # The chain is a one-child tree: fold the previous arrival's
        # partial sum, forward to the next arrival.
        return (reduce_rank_steps(nxt.get(me),
                                  [prev[me]] if me in prev else [], segs)
                + bcast_rank_steps(
                    *ranks.family(shape, size, chain_root, me), segs))

    return _schedule("allreduce", "allreduce.pap_prereduced", size,
                     chain_root, nseg, _pap_meta(shape, order), rank_steps)
