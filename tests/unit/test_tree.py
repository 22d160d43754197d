"""Unit tests for binomial-tree rank arithmetic (paper Fig. 1)."""

import pytest

from repro.topo import ranks as tree


def test_paper_figure_one_tree():
    """The 8-process tree of Fig. 1: root 0; 1, 2, 4 children of 0;
    3, 5, 6 at depth 2 (parents 2, 4, 4); 7 at depth 3 (parent 6)."""
    assert tree.children(0, 8) == [1, 2, 4]
    assert tree.children(2, 8) == [3]
    assert tree.children(4, 8) == [5, 6]
    assert tree.children(6, 8) == [7]
    for leaf in (1, 3, 5, 7):
        assert tree.children(leaf, 8) == []
    assert tree.parent(3) == 2
    assert tree.parent(6) == 4
    assert tree.parent(7) == 6


def test_parent_clears_lowest_bit():
    assert tree.parent(1) == 0
    assert tree.parent(6) == 4
    assert tree.parent(12) == 8
    assert tree.parent(5) == 4
    with pytest.raises(ValueError):
        tree.parent(0)


def test_parent_child_consistency_various_sizes():
    for size in (2, 3, 5, 8, 13, 16, 31, 32):
        for rel in range(1, size):
            assert rel in tree.children(tree.parent(rel), size)
        # every node is someone's child exactly once
        seen = [c for r in range(size) for c in tree.children(r, size)]
        assert sorted(seen) == list(range(1, size))


def test_relative_absolute_roundtrip():
    for size in (5, 8):
        for root in range(size):
            for rank in range(size):
                rel = tree.relative_rank(rank, root, size)
                assert tree.absolute_rank(rel, root, size) == rank
    assert tree.relative_rank(0, 3, 8) == 5
    assert tree.absolute_rank(0, 3, 8) == 3


def test_depth_is_popcount():
    assert tree.depth(0) == 0
    assert tree.depth(7) == 3
    assert tree.depth(8) == 1
    assert tree.depth(31) == 5


def test_max_depth_and_deepest():
    assert tree.max_depth(8) == 3
    assert tree.deepest_relative_rank(8) == 7
    assert tree.max_depth(32) == 5
    assert tree.deepest_relative_rank(32) == 31
    # non-power-of-two: deepest is the largest max-popcount rank
    assert tree.deepest_relative_rank(6) == 5       # 101
    assert tree.max_depth(6) == 2


def test_bounds_checking():
    with pytest.raises(ValueError):
        tree.children(4, 4)
    with pytest.raises(ValueError):
        tree.relative_rank(0, 5, 4)
    with pytest.raises(ValueError):
        tree.children(0, 0)
