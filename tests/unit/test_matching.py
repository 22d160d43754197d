"""Unit tests for the MPICH matching engine (posted/unexpected queues)."""

import numpy as np
import pytest

from repro.errors import TruncationError
from repro.mpich.matching import MatchingEngine, PostedRecv
from repro.mpich.message import (ANY_SOURCE, ANY_TAG, Envelope, TransferKind)
from repro.mpich.requests import Request


def env(src=0, tag=1, ctx=100, nbytes=8):
    data = np.full(nbytes // 8, float(src), dtype=np.float64)
    return Envelope(src=src, dst=9, tag=tag, context_id=ctx,
                    kind=TransferKind.EAGER, data=data, nbytes=nbytes)


def posted(source=0, tag=1, ctx=100, count=1):
    return PostedRecv(source, tag, ctx, np.zeros(count), Request("recv"), 0.0)


def test_find_posted_removes_match():
    m = MatchingEngine()
    p = posted()
    m.add_posted(p)
    assert m.find_posted(env()) is p
    assert m.find_posted(env()) is None


def test_find_posted_oldest_first():
    m = MatchingEngine()
    p1, p2 = posted(), posted()
    m.add_posted(p1)
    m.add_posted(p2)
    assert m.find_posted(env()) is p1
    assert m.find_posted(env()) is p2


def test_posted_wildcards():
    m = MatchingEngine()
    m.add_posted(posted(source=ANY_SOURCE, tag=ANY_TAG))
    assert m.find_posted(env(src=42, tag=17)) is not None


def test_posted_context_never_wildcards():
    m = MatchingEngine()
    m.add_posted(posted(ctx=100))
    assert m.find_posted(env(ctx=102)) is None


def test_unexpected_fifo_per_criteria():
    m = MatchingEngine()
    e1, e2 = env(src=3), env(src=3)
    m.store_unexpected(e1)
    m.store_unexpected(e2)
    taken = m.take_unexpected(3, 1, 100)
    assert taken is e1
    assert m.take_unexpected(3, 1, 100) is e2
    assert m.take_unexpected(3, 1, 100) is None


def test_take_unexpected_with_wildcards():
    m = MatchingEngine()
    m.store_unexpected(env(src=5, tag=9))
    assert m.take_unexpected(ANY_SOURCE, ANY_TAG, 100) is not None


def test_remove_posted_by_request():
    m = MatchingEngine()
    p = posted()
    m.add_posted(p)
    assert m.remove_posted(p.request)
    assert not m.remove_posted(p.request)
    assert m.find_posted(env()) is None


def test_copy_payload_and_truncation():
    dst = np.zeros(4)
    MatchingEngine.copy_payload(dst, np.array([1.0, 2.0]), 16)
    assert (dst == [1.0, 2.0, 0.0, 0.0]).all()
    with pytest.raises(TruncationError):
        MatchingEngine.copy_payload(np.zeros(1), np.zeros(4), 32)


def test_stats_tracking():
    m = MatchingEngine()
    m.store_unexpected(env())
    m.store_unexpected(env())
    m.stats.count_copy(64)
    assert m.stats.unexpected_msgs == 2
    assert m.stats.max_unexpected_len == 2
    assert (m.stats.copies, m.stats.copied_bytes) == (1, 64)
