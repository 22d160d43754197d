"""Property-based tests for the binomial tree (hypothesis)."""

from hypothesis import given, strategies as st

from repro.topo import ranks as tree

sizes = st.integers(min_value=1, max_value=300)


@given(sizes)
def test_every_nonroot_has_exactly_one_parent(size):
    children_of = {r: tree.children(r, size) for r in range(size)}
    seen = [c for kids in children_of.values() for c in kids]
    assert sorted(seen) == list(range(1, size))


@given(sizes)
def test_parent_is_inverse_of_children(size):
    for rel in range(1, size):
        assert rel in tree.children(tree.parent(rel), size)


@given(sizes)
def test_depth_decreases_toward_root(size):
    for rel in range(1, size):
        assert tree.depth(tree.parent(rel)) == tree.depth(rel) - 1


@given(st.integers(min_value=1, max_value=128),
       st.integers(min_value=0, max_value=127),
       st.integers(min_value=0, max_value=127))
def test_relative_absolute_roundtrip(size, root, rank):
    root %= size
    rank %= size
    rel = tree.relative_rank(rank, root, size)
    assert 0 <= rel < size
    assert tree.absolute_rank(rel, root, size) == rank


@given(sizes)
def test_deepest_rank_has_max_depth(size):
    deepest = tree.deepest_relative_rank(size)
    max_d = tree.max_depth(size)
    assert tree.depth(deepest) == max_d
    # and the deepest is the largest rank attaining that depth
    for rel in range(deepest + 1, size):
        assert tree.depth(rel) < max_d


@given(sizes)
def test_children_are_in_increasing_mask_order(size):
    for rel in range(size):
        kids = tree.children(rel, size)
        offsets = [c - rel for c in kids]
        assert offsets == sorted(offsets)
        # each offset is a power of two
        assert all(o & (o - 1) == 0 for o in offsets)


@given(sizes)
def test_tree_edges_form_a_tree(size):
    # connected: walking parents from any node reaches the root
    for rel in range(1, size):
        cur, hops = rel, 0
        while cur != 0:
            cur = tree.parent(cur)
            hops += 1
            assert hops <= 64
