"""Property tests for every registered TreeShape.

For all shapes and all sizes 1..64 (non-powers-of-two included):

* ``parent``/``children`` round-trip in both directions,
* the tree is acyclic and spanning (every rank reaches the root),
* combine order is deterministic across fresh instances,
* ``deepest_rel`` really is a deepest rank,
* the binomial shape is bit-compatible with the original
  ``topo.ranks`` arithmetic (and k-nomial radix 2 with it).
"""

import pytest

from repro.topo import ranks as tree
from repro.topo.trees import TREE_SHAPES, make_tree_shape

SIZES = list(range(1, 65))

#: (registry name, radix) for every registered shape, with extra radices
#: for the parameterized one.
SHAPE_PARAMS = [("binomial", 2), ("knomial", 2), ("knomial", 3),
                ("knomial", 4), ("chain", 2), ("bine", 2)]


def shape_id(param):
    name, radix = param
    return f"{name}-k{radix}"


@pytest.fixture(params=SHAPE_PARAMS, ids=shape_id)
def shape(request):
    name, radix = request.param
    return make_tree_shape(name, radix=radix)


def test_registry_covers_all_shapes():
    assert set(TREE_SHAPES) == {"binomial", "knomial", "chain", "bine"}
    with pytest.raises(ValueError, match="unknown tree shape"):
        make_tree_shape("mystery")
    with pytest.raises(ValueError, match="radix"):
        make_tree_shape("knomial", radix=1)


def test_parent_children_round_trip(shape):
    for size in SIZES:
        for rel in range(size):
            for child in shape.children(rel, size):
                assert shape.parent(child, size) == rel, \
                    f"size={size}: child {child} of {rel} disagrees"
        for rel in range(1, size):
            parent = shape.parent(rel, size)
            assert rel in shape.children(parent, size), \
                f"size={size}: {rel} missing from parent {parent}'s children"


def test_root_has_no_parent(shape):
    for size in (1, 2, 7, 64):
        with pytest.raises(ValueError):
            shape.parent(0, size)


def test_acyclic_and_spanning(shape):
    for size in SIZES:
        for rel in range(size):
            seen = set()
            cur = rel
            while cur != 0:
                assert cur not in seen, f"size={size}: cycle at {cur}"
                seen.add(cur)
                cur = shape.parent(cur, size)
                assert 0 <= cur < size
            assert len(seen) <= size - 1


def test_children_bounded_and_unique(shape):
    for size in SIZES:
        all_children = []
        for rel in range(size):
            kids = shape.children(rel, size)
            assert all(0 < c < size for c in kids)
            assert len(set(kids)) == len(kids)
            all_children.extend(kids)
        # spanning: every non-root rank is exactly one node's child
        assert sorted(all_children) == list(range(1, size))


def test_combine_order_deterministic(shape):
    fresh = make_tree_shape(
        shape.name.split("(")[0],
        radix=getattr(shape, "radix", 2))
    for size in (1, 5, 16, 33, 64):
        for rel in range(size):
            assert shape.children(rel, size) == fresh.children(rel, size)


def test_deepest_rel_has_max_depth(shape):
    for size in (1, 2, 3, 13, 32, 64):
        deepest = shape.deepest_rel(size)
        depths = [shape.depth(rel, size) for rel in range(size)]
        assert shape.depth(deepest, size) == max(depths)
        assert shape.max_depth(size) == max(depths)


def test_binomial_matches_original_tree_module():
    shape = make_tree_shape("binomial")
    for size in SIZES:
        assert shape.deepest_rel(size) == tree.deepest_relative_rank(size)
        for rel in range(size):
            assert shape.children(rel, size) == tree.children(rel, size)
            if rel:
                assert shape.parent(rel, size) == tree.parent(rel)
                assert shape.depth(rel, size) == tree.depth(rel)


def test_knomial_radix_2_is_binomial():
    k2 = make_tree_shape("knomial", radix=2)
    binomial = make_tree_shape("binomial")
    for size in SIZES:
        for rel in range(size):
            assert k2.children(rel, size) == binomial.children(rel, size)


def test_chain_is_a_chain():
    chain = make_tree_shape("chain")
    assert chain.max_depth(10) == 9
    assert chain.children(3, 10) == [4]
    assert chain.children(9, 10) == []
    assert chain.parent(7, 10) == 6


def test_bine_virtual_tree_matches_construction():
    # The p=8 virtual tree from the mirrored construction: root subtrees
    # at +1 (size 1), -1 (size 2, mirrored), +4 (size 4).
    bine = make_tree_shape("bine")
    assert bine.children(0, 8) == [1, 7, 4]
    assert bine.parent(6, 8) == 7
    assert bine.parent(5, 8) == 4
    assert bine.parent(3, 8) == 4
    assert bine.parent(2, 8) == 3
