"""Pluggable reduction/broadcast tree shapes.

A :class:`TreeShape` is a strategy over *relative* ranks (``rel =
(rank - root) % size``, exactly the arithmetic of
:mod:`repro.topo.ranks`): ``parent(rel, size)`` names the node
a contribution is combined into and ``children(rel, size)`` lists the
contributors **in combine order** — the order the default reduction
receives and folds child results, which every implementation must keep
deterministic because the simulator's bit-reproducibility depends on it.

Registered shapes:

``binomial``
    MPICH's default (paper Fig. 1); delegates to
    :mod:`repro.topo.ranks` so the default configuration is
    bit-identical to the pre-registry code.
``knomial``
    Radix-``k`` generalization: a node's parent clears its lowest nonzero
    base-``k`` digit; radix 2 coincides with ``binomial``.  Shallower
    trees (fewer hop levels) at the cost of more children per node.
``chain``
    Fully pipelined chain (depth ``size - 1``): rank ``i`` combines into
    ``i - 1``.  The degenerate shape that maximizes per-link locality and
    minimizes per-node fan-in.
``bine``
    A locality-optimizing mirrored-binomial construction in the spirit of
    Bine trees (De Sensi et al.): over the next power of two ``p`` the
    root's subtrees of sizes ``1, 2, 4, ...`` are placed alternately at
    ``+1``, ``-1`` and ``+2^j`` (mod ``p``), each covering a *contiguous*
    rank interval, so tree edges span short rank distances.  Non-powers
    of two fold each missing node's subtree onto its nearest surviving
    virtual ancestor (the root, rank 0, always survives).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from ..config import check_name
from . import ranks as tree


def _check(value: int, size: int) -> None:
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if not (0 <= value < size):
        raise ValueError(f"rank {value} outside 0..{size - 1}")


class TreeShape:
    """Strategy interface: parent/children on relative ranks.

    Implementations must be pure functions of ``(rel, size)`` — no state,
    no randomness — so every rank computes the same tree independently.
    """

    name = "abstract"

    def parent(self, rel: int, size: int) -> int:
        """Relative rank ``rel`` combines into (raises on ``rel == 0``)."""
        raise NotImplementedError

    def children(self, rel: int, size: int) -> list[int]:
        """Children of ``rel`` in deterministic combine order."""
        raise NotImplementedError

    # -- derived (override when a closed form exists) -------------------
    def depth(self, rel: int, size: int) -> int:
        """Hops from ``rel`` to the root."""
        _check(rel, size)
        d = 0
        while rel != 0:
            rel = self.parent(rel, size)
            d += 1
        return d

    def max_depth(self, size: int) -> int:
        """Deepest level of the tree over ``size`` nodes."""
        return max(self.depth(rel, size) for rel in range(size))

    def deepest_rel(self, size: int) -> int:
        """The relative rank farthest from the root (the paper's "last
        node"); ties broken toward the largest rank, matching
        :func:`repro.topo.ranks.deepest_relative_rank`."""
        best = 0
        best_depth = 0
        for rel in range(size):
            d = self.depth(rel, size)
            if d >= best_depth:
                best = rel
                best_depth = d
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TreeShape {self.name}>"


class BinomialTree(TreeShape):
    """MPICH's binomial tree, delegating to the original rank arithmetic
    so existing configurations stay bit-identical."""

    name = "binomial"

    def parent(self, rel: int, size: int) -> int:
        _check(rel, size)
        return tree.parent(rel)

    def children(self, rel: int, size: int) -> list[int]:
        return tree.children(rel, size)

    def depth(self, rel: int, size: int) -> int:
        _check(rel, size)
        return tree.depth(rel)

    def max_depth(self, size: int) -> int:
        return tree.max_depth(size)

    def deepest_rel(self, size: int) -> int:
        return tree.deepest_relative_rank(size)


class KnomialTree(TreeShape):
    """Radix-``k`` generalization of the binomial tree.

    A node's parent clears its lowest nonzero base-``k`` digit; its
    children add ``j * k^i`` (``j`` in ``1..k-1``) at every digit position
    ``i`` below its own lowest nonzero digit, bounded by ``size``, in
    increasing ``(position, j)`` order.
    """

    def __init__(self, radix: int):
        if radix < 2:
            raise ValueError(f"k-nomial radix must be >= 2, got {radix}")
        self.radix = radix
        self.name = f"knomial({radix})"

    def parent(self, rel: int, size: int) -> int:
        _check(rel, size)
        if rel == 0:
            raise ValueError("root has no parent")
        k = self.radix
        mask = 1
        while (rel // mask) % k == 0:
            mask *= k
        return rel - ((rel // mask) % k) * mask

    def children(self, rel: int, size: int) -> list[int]:
        _check(rel, size)
        k = self.radix
        result = []
        mask = 1
        while mask < size:
            if (rel // mask) % k:
                break
            for j in range(1, k):
                child = rel + j * mask
                if child < size:
                    result.append(child)
            mask *= k
        return result


class ChainTree(TreeShape):
    """Fully pipelined chain: rank ``i`` combines into ``i - 1``."""

    name = "chain"

    def parent(self, rel: int, size: int) -> int:
        _check(rel, size)
        if rel == 0:
            raise ValueError("root has no parent")
        return rel - 1

    def children(self, rel: int, size: int) -> list[int]:
        _check(rel, size)
        return [rel + 1] if rel + 1 < size else []

    def depth(self, rel: int, size: int) -> int:
        _check(rel, size)
        return rel

    def max_depth(self, size: int) -> int:
        return size - 1

    def deepest_rel(self, size: int) -> int:
        return size - 1


@lru_cache(maxsize=None)
def _bine_virtual(p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Virtual bine tree over ``p = 2^h`` ranks: (parent per rank,
    preorder traversal in placement order)."""
    parent = [0] * p
    order: list[int] = []

    def build(root: int, span: int, direction: int) -> None:
        order.append(root)
        s = 1
        while s < span:
            if s == 1:
                child, d = (root + direction) % p, direction
            elif s == 2:
                # The mirrored subtree: placed on the other side of the
                # root and grown in the opposite direction.
                child, d = (root - direction) % p, -direction
            else:
                child, d = (root + s * direction) % p, direction
            parent[child] = root
            build(child, s, d)
            s *= 2

    build(0, p, +1)
    return tuple(parent), tuple(order)


@lru_cache(maxsize=None)
def _bine_folded(size: int) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """Fold the virtual power-of-two bine tree down to ``size`` ranks:
    a missing node's children are promoted to its nearest surviving
    virtual ancestor.  Child order follows the virtual preorder, keeping
    the combine order deterministic."""
    p = 1
    while p < size:
        p *= 2
    vparent, vorder = _bine_virtual(p)
    parent: dict[int, int] = {}
    for v in range(1, size):
        a = vparent[v]
        while a >= size:
            a = vparent[a]
        parent[v] = a
    children: dict[int, list[int]] = {r: [] for r in range(size)}
    for v in vorder:
        if v != 0 and v < size:
            children[parent[v]].append(v)
    return parent, {r: tuple(c) for r, c in children.items()}


class BineTree(TreeShape):
    """Locality-optimizing mirrored-binomial tree (see module docstring)."""

    name = "bine"

    def parent(self, rel: int, size: int) -> int:
        _check(rel, size)
        if rel == 0:
            raise ValueError("root has no parent")
        return _bine_folded(size)[0][rel]

    def children(self, rel: int, size: int) -> list[int]:
        _check(rel, size)
        return list(_bine_folded(size)[1][rel])


#: Registry: shape name -> factory taking the configured radix (shapes
#: without a radix knob ignore it).
TREE_SHAPES: dict[str, Callable[[int], TreeShape]] = {
    "binomial": lambda radix: BinomialTree(),
    "knomial": KnomialTree,
    "chain": lambda radix: ChainTree(),
    "bine": lambda radix: BineTree(),
}


def make_tree_shape(name: str, radix: int = 2) -> TreeShape:
    """Instantiate a registered tree shape (``MpiParams.tree_shape`` /
    ``MpiParams.tree_radix``)."""
    check_name("tree shape", name, TREE_SHAPES)
    return TREE_SHAPES[name](radix)
