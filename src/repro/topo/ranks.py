"""Tree rank arithmetic: root rotation, and the binomial tree (paper Fig. 1).

MPICH computes everything on *relative* ranks ``rel = (rank - root) % size``
so that any rank can be the root of the same tree shape.  A node's parent
clears the lowest set bit of its relative rank; its children set each bit
above its lowest set bit (bounded by ``size``), in increasing-mask order —
that order is also the order the default reduction receives and combines
child contributions.

The module imports nothing, so the tree shapes, the schedule lowerings, the
collectives and the AB engines can all sit above it.
"""

from __future__ import annotations


def relative_rank(rank: int, root: int, size: int) -> int:
    """Rank relative to ``root`` (root itself maps to 0)."""
    _check(rank, size)
    _check(root, size)
    return (rank - root) % size


def absolute_rank(rel: int, root: int, size: int) -> int:
    """Inverse of :func:`relative_rank`."""
    _check(rel, size)
    _check(root, size)
    return (rel + root) % size


def family(shape, size: int, root: int, me: int):
    """``(parent, children)`` of communicator rank ``me`` in the ``shape``
    tree rooted at ``root``, as communicator ranks: the parent is None at
    the root, the children come in combine order.  ``shape`` is a
    :class:`repro.topo.trees.TreeShape`."""
    rel = relative_rank(me, root, size)
    kids = [absolute_rank(c, root, size) for c in shape.children(rel, size)]
    parent = (None if rel == 0
              else absolute_rank(shape.parent(rel, size), root, size))
    return parent, kids


def parent(rel: int) -> int:
    """Parent of a non-root node: clear the lowest set bit."""
    if rel == 0:
        raise ValueError("root has no parent")
    return rel & (rel - 1)


def children(rel: int, size: int) -> list[int]:
    """Children of ``rel`` in increasing-mask (combine) order."""
    _check(rel, size)
    result = []
    mask = 1
    while mask < size:
        if rel & mask:
            break
        child = rel | mask
        if child < size:
            result.append(child)
        mask <<= 1
    return result


def depth(rel: int) -> int:
    """Hops to the root: the number of set bits (each hop clears one)."""
    return bin(rel).count("1")


def max_depth(size: int) -> int:
    """Deepest level of the binomial tree over ``size`` nodes."""
    return max(depth(r) for r in range(size))


def deepest_relative_rank(size: int) -> int:
    """The relative rank farthest from the root (paper's "last node").

    Ties broken toward the largest rank, which is also the node whose
    contribution enters the root last under the mask-order combine.
    """
    best = 0
    best_depth = 0
    for rel in range(size):
        d = depth(rel)
        if d >= best_depth:
            best = rel
            best_depth = d
    return best


def _check(value: int, size: int) -> None:
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not (0 <= value < size):
        raise ValueError(f"rank {value} outside 0..{size - 1}")
