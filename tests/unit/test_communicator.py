"""Unit tests for communicators."""

import pytest

from repro.errors import MpiError
from repro.mpich.communicator import Communicator, world_communicator


def test_world_identity_mapping():
    world = world_communicator(4)
    assert world.size == 4
    for r in range(4):
        assert world.world_rank(r) == r
        assert world.rank_of_world(r) == r


def test_world_requires_positive_size():
    with pytest.raises(MpiError):
        world_communicator(0)


def test_contexts_are_distinct_and_paired():
    a = world_communicator(2)
    b = world_communicator(2)
    assert a.context_id != b.context_id
    assert a.coll_context == a.pt2pt_context + 1


def test_subgroup_translation():
    comm = Communicator((3, 5, 9), name="sub")
    assert comm.size == 3
    assert comm.world_rank(1) == 5
    assert comm.rank_of_world(9) == 2
    with pytest.raises(MpiError):
        comm.world_rank(3)
    with pytest.raises(MpiError):
        comm.rank_of_world(4)


def test_duplicate_ranks_rejected():
    with pytest.raises(MpiError):
        Communicator((1, 1, 2))
