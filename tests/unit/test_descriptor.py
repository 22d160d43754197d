"""Unit tests for reduce descriptors, the descriptor queue and the AB
unexpected queue."""

import tracemalloc

import numpy as np
import pytest

from repro.core.descriptor import DescriptorQueue, ReduceDescriptor
from repro.core.unexpected import AbUnexpectedQueue
from repro.errors import AbProtocolError
from repro.mpich.message import AbHeader
from repro.mpich.operations import SUM


def make_desc(instance=0, children=(1, 2), parent=0, context=101, seg=-1):
    return ReduceDescriptor(
        context_id=context, root_world=0, instance=instance, parent_world=parent,
        children_world=list(children), op=SUM, acc=np.zeros(4),
        created_at=0.0, seg=seg)


# ---------------------------------------------------------------------------
# ReduceDescriptor
# ---------------------------------------------------------------------------

def test_descriptor_tracks_pending_children():
    d = make_desc(children=(3, 5, 9))
    assert d.pending_children() == [3, 5, 9]
    assert d.is_pending(5)
    d.mark_done(5)
    assert not d.is_pending(5)
    assert d.pending_children() == [3, 9]
    assert not d.complete
    d.mark_done(3)
    d.mark_done(9)
    assert d.complete


def test_descriptor_double_completion_rejected():
    d = make_desc()
    d.mark_done(1)
    with pytest.raises(AbProtocolError):
        d.mark_done(1)


def test_descriptor_requires_children():
    with pytest.raises(AbProtocolError):
        make_desc(children=())


def test_descriptor_pending_preserves_mask_order():
    d = make_desc(children=(9, 3, 5))
    assert d.pending_children() == [9, 3, 5]


# ---------------------------------------------------------------------------
# DescriptorQueue
# ---------------------------------------------------------------------------

def test_queue_matches_each_instance_of_one_sender():
    """A sender pending on two instances: each packet feeds the descriptor
    its header names, whichever is older."""
    q = DescriptorQueue()
    d0 = make_desc(instance=0, children=(7,))
    d1 = make_desc(instance=1, children=(7,))
    q.push(d0)
    q.push(d1)
    assert q.match(7, 101, 1, -1) is d1
    assert q.match(7, 101, 0, -1) is d0
    assert q.match(7, 101, 2, -1) is None
    assert q.match(7, 101, 0, 0) is None


def test_queue_match_by_sender_only_pending():
    """The identity alone is not enough: the sender must still be pending
    on the descriptor it names."""
    q = DescriptorQueue()
    d = make_desc(children=(4, 6))
    q.push(d)
    assert q.match(4, 101, 0, -1) is d
    assert q.match(5, 101, 0, -1) is None
    d.mark_done(4)
    assert q.match(4, 101, 0, -1) is None
    assert q.match(6, 101, 0, -1) is d


def test_queue_match_keeps_contexts_apart():
    """Two communicators' instance-0 reduces from one sender: neither
    descriptor takes the other context's packet."""
    q = DescriptorQueue()
    world = make_desc(children=(7,), context=1)
    dup = make_desc(children=(7,), context=3)
    q.push(world)
    q.push(dup)
    assert q.match(7, 3, 0, -1) is dup
    assert q.match(7, 1, 0, -1) is world
    assert q.match(7, 5, 0, -1) is None


def test_queue_refuses_a_duplicate_identity():
    q = DescriptorQueue()
    q.push(make_desc(instance=4, seg=2))
    q.push(make_desc(instance=4, seg=3))
    with pytest.raises(AbProtocolError, match="already queued"):
        q.push(make_desc(instance=4, seg=2, children=(9,)))
    assert len(q) == 2


def test_queue_remove_and_stats():
    q = DescriptorQueue()
    d = make_desc()
    q.push(d)
    assert len(q) == 1 and not q.empty
    q.remove(d)
    assert q.empty and d.removed
    assert (q.enqueued, q.dequeued, q.max_len) == (1, 1, 1)


def test_queue_double_remove_rejected():
    q = DescriptorQueue()
    d = make_desc()
    q.push(d)
    q.remove(d)
    with pytest.raises(AbProtocolError):
        q.remove(d)


def test_queue_remove_unknown_rejected():
    q = DescriptorQueue()
    with pytest.raises(AbProtocolError):
        q.remove(make_desc())


# ---------------------------------------------------------------------------
# AbUnexpectedQueue
# ---------------------------------------------------------------------------

def head(inst=0):
    return AbHeader(root=0, instance=inst)


def test_ab_unexpected_fifo_per_sender():
    q = AbUnexpectedQueue()
    q.put(3, head(0), np.array([1.0]), 0.0)
    q.put(3, head(1), np.array([2.0]), 1.0)
    q.put(5, head(0), np.array([3.0]), 2.0)
    e = q.take(3)
    assert e.header.instance == 0 and e.data[0] == 1.0
    assert q.take(3).header.instance == 1
    assert q.take(3) is None
    assert q.take(5).data[0] == 3.0


def test_ab_unexpected_fifo_per_sender_and_context():
    q = AbUnexpectedQueue()
    q.put(3, head(0), np.array([1.0]), 0.0, context=1)
    q.put(3, head(0), np.array([2.0]), 1.0, context=3)
    assert q.take(3, 3).data[0] == 2.0
    assert q.take_for(3, 0, -1, 3) is None
    assert q.take_for(3, 0, -1, 1).data[0] == 1.0
    assert q.empty


def test_ab_unexpected_take_for_skips_other_identities():
    q = AbUnexpectedQueue()
    q.put(3, head(0), np.array([1.0]), 0.0)
    q.put(3, AbHeader(root=0, instance=1, seg=0), np.array([2.0]), 1.0)
    q.put(3, AbHeader(root=0, instance=1, seg=1), np.array([3.0]), 2.0)
    assert q.take_for(3, 1, 1).data[0] == 3.0
    assert q.take_for(3, 1, 1) is None
    assert q.take_for(3, 0, -1).data[0] == 1.0
    assert q.take(3).data[0] == 2.0
    assert q.empty


def test_ab_unexpected_retains_nothing_once_drained():
    """Every early arrival carries a new identity; putting and taking
    thousands of them must not grow the queue's memory."""
    q = AbUnexpectedQueue()
    data = np.zeros(1)

    def cycle(instances):
        for inst in instances:
            q.put(3, head(inst), data, 0.0, context=1)
            q.put(5, AbHeader(root=0, instance=inst, seg=0), data, 0.0)
            assert q.take_for(3, inst, -1, 1) is not None
            assert q.take_for(5, inst, 0) is not None

    tracemalloc.start()
    try:
        cycle(range(100))
        before = tracemalloc.get_traced_memory()[0]
        cycle(range(100, 4100))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert q.empty
    assert grown < 16 * 1024


def test_ab_unexpected_stats():
    q = AbUnexpectedQueue()
    q.put(1, head(), np.zeros(1), 0.0)
    q.put(2, head(), np.zeros(1), 0.0)
    assert (q.inserted, q.max_len, len(q)) == (2, 2, 2)
    q.take(1)
    assert q.consumed == 1
    assert not q.empty
