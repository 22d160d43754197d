"""Interned rank steps: ``walk.own_steps`` derives a rank's steps once per
communicator and segment count and hands the same tuple back on every
later call.

Sound because rank steps are a pure function of the key
``(derive, resolved shape, root, me, nseg)`` over the communicator's fixed
group: the property test checks the interned tuple against a fresh
derivation for every per-rank lowering × shape × size 1–64 × root × rank ×
segment count.  The unit tests pin the key's edges — one communicator
never answers for another, a message size that resolves to another shape
gets that shape's steps, and another segment count gets its own entry.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import quiet_cluster
from repro.mpich.collectives.walk import own_steps
from repro.mpich.communicator import Communicator, world_communicator
from repro.mpich.rank import MpiRank
from repro.pipeline.segmenter import Segment
from repro.runtime.program import build_cluster
from repro.schedule.lower import (ab_reduce_rank_steps, bcast_rank_steps,
                                  pipelined_rank_steps, reduce_rank_steps,
                                  seg_ids)
from repro.schedule.table import (TABLE_ENV, TunedEntry, TuningTable,
                                  clear_table_cache)
from repro.topo import make_tree_shape
from repro.topo.ranks import family

DERIVES = (reduce_rank_steps, bcast_rank_steps, ab_reduce_rank_steps,
           pipelined_rank_steps)
SHAPES = {"binomial": make_tree_shape("binomial"),
          "knomial(4)": make_tree_shape("knomial", radix=4),
          "chain": make_tree_shape("chain"),
          "bine": make_tree_shape("bine")}


class FixedShapeRank:
    """What ``own_steps`` reads of a rank: its world rank and the shape
    its config resolves for a message."""

    def __init__(self, rank: int, shape):
        self.rank = rank
        self.shape = shape

    def tree_shape_for(self, nbytes: int):
        return self.shape


def segments(nseg: int):
    """An ``nseg``-segment plan of 2 doubles a segment (None: whole)."""
    return [Segment(i, 2 * i, 2, 8) for i in range(nseg)] if nseg else None


@settings(max_examples=60, deadline=None)
@given(derive=st.sampled_from(DERIVES), shape=st.sampled_from(sorted(SHAPES)),
       data=st.data())
def test_interned_steps_are_the_fresh_derivation(derive, shape, data):
    size = data.draw(st.integers(1, 64), label="size")
    root = data.draw(st.integers(0, size - 1), label="root")
    nseg = data.draw(st.sampled_from([0, *range(2, 9)]), label="nseg")
    comm = world_communicator(size)
    tree = SHAPES[shape]
    for me in range(size):
        rank = FixedShapeRank(me, tree)
        steps = own_steps(rank, comm, root, 32, segments(nseg), derive)
        assert steps == tuple(derive(*family(tree, size, root, me),
                                     seg_ids(nseg)))
        again = segments(nseg) if nseg else ()
        assert own_steps(rank, comm, root, 32, again, derive) is steps
    assert len(comm.interned_steps) == size


def cluster_ranks(size: int, config=None):
    config = config or quiet_cluster(size)
    return [MpiRank(node, world_communicator(size))
            for node in build_cluster(config).nodes]


def test_sub_communicator_and_world_never_share_entries():
    ranks = cluster_ranks(8)
    world = ranks[0].comm_world
    job = Communicator((2, 3, 4, 5), name="job0")   # as repro.tenancy builds
    rank = ranks[3]
    in_world = own_steps(rank, world, 0, 32, None, reduce_rank_steps)
    in_job = own_steps(rank, job, 0, 32, None, reduce_rank_steps)
    assert in_world != in_job                 # comm rank 3 vs comm rank 1
    assert list(world.interned_steps.values()) == [in_world]
    assert list(job.interned_steps.values()) == [in_job]


@pytest.fixture
def two_shape_table(tmp_path, monkeypatch):
    """A crossbar table for 8 ranks: knomial(4) below 4 KiB, chain above,
    neither segmented."""
    table = TuningTable(entries=[
        TunedEntry(topology="crossbar", nranks=8, min_msg_bytes=0,
                   max_msg_bytes=4095, tree_shape="knomial", tree_radix=4),
        TunedEntry(topology="crossbar", nranks=8, min_msg_bytes=4096,
                   max_msg_bytes=1 << 62, tree_shape="chain"),
    ])
    table.dump(tmp_path / "table.json")
    monkeypatch.setenv(TABLE_ENV, str(tmp_path / "table.json"))
    clear_table_cache()
    yield
    clear_table_cache()


def test_auto_sizes_resolving_to_other_shapes_get_other_steps(
        two_shape_table):
    config = quiet_cluster(8)
    config = dataclasses.replace(config, mpi=dataclasses.replace(
        config.mpi, tree_shape="auto"))
    rank = cluster_ranks(8, config)[0]
    comm = rank.comm_world
    small = own_steps(rank, comm, 0, 1024, None, reduce_rank_steps)
    large = own_steps(rank, comm, 0, 8192, None, reduce_rank_steps)
    assert small == tuple(reduce_rank_steps(
        *family(make_tree_shape("knomial", radix=4), 8, 0, 0)))
    assert large == tuple(reduce_rank_steps(
        *family(make_tree_shape("chain"), 8, 0, 0)))
    assert small != large and len(comm.interned_steps) == 2
    assert own_steps(rank, comm, 0, 2048, None, reduce_rank_steps) is small


def test_segmented_calls_intern_one_entry_per_segment_count():
    rank = cluster_ranks(8)[0]
    comm = rank.comm_world
    four = own_steps(rank, comm, 0, 64, segments(4), reduce_rank_steps)
    assert {step.seg for step in four} == {0, 1, 2, 3}
    assert own_steps(rank, comm, 0, 64, segments(4), reduce_rank_steps) is four
    eight = own_steps(rank, comm, 0, 128, segments(8), reduce_rank_steps)
    assert {step.seg for step in eight} == set(range(8))
    whole = own_steps(rank, comm, 0, 64, None, reduce_rank_steps)
    assert list(comm.interned_steps.values()) == [four, eight, whole]
