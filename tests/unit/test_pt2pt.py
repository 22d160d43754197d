"""Point-to-point semantics through the full stack (eager + rendezvous,
expected + unexpected paths, wildcards, non-blocking)."""

import numpy as np
import pytest

from repro.config import quiet_cluster
from repro.mpich.message import ANY_SOURCE, ANY_TAG
from conftest import run_ranks


def test_blocking_send_recv():
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.arange(4.0), 1, tag=7)
            return None
        buf = np.zeros(4)
        status = yield from mpi.recv(buf, 0, tag=7)
        return buf.tolist(), status.source, status.tag

    out = run_ranks(2, program)
    data, src, tag = out.results[1]
    assert data == [0.0, 1.0, 2.0, 3.0]
    assert (src, tag) == (0, 7)


def test_unexpected_message_buffered_then_matched():
    """A message the progress engine sees before its receive is posted goes
    through the unexpected queue and costs two copies (paper Sec. III)."""
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.array([42.0]), 1, tag=3)
            return None
        if mpi.rank == 2:
            yield from mpi.compute(150.0)    # arrives second
            yield from mpi.send(np.array([7.0]), 1, tag=8)
            return None
        buf = np.zeros(1)
        # Blocking on rank 2's (later) message spins the progress engine,
        # which must queue rank 0's already-arrived message as unexpected.
        yield from mpi.recv(buf, 2, tag=8)
        assert buf[0] == 7.0
        yield from mpi.recv(buf, 0, tag=3)
        return buf[0]

    out = run_ranks(3, program)
    assert out.results[1] == 42.0
    stats = out.contexts[1].progress.matching.stats
    assert stats.unexpected_msgs == 1
    assert stats.copies == 3   # 2 for the unexpected path + 1 expected


def test_expected_message_single_copy():
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(100.0)   # recv is posted first
            yield from mpi.send(np.array([1.0]), 1)
            return None
        buf = np.zeros(1)
        yield from mpi.recv(buf, 0)
        return buf[0]

    out = run_ranks(2, program)
    stats = out.contexts[1].progress.matching.stats
    assert stats.expected_msgs == 1
    assert stats.copies == 1


def test_wildcard_receive():
    def program(mpi):
        if mpi.rank == 0:
            buf = np.zeros(1)
            status = yield from mpi.recv(buf, ANY_SOURCE, tag=ANY_TAG)
            return buf[0], status.source
        yield from mpi.compute(float(mpi.rank) * 10.0)
        if mpi.rank == 2:
            yield from mpi.send(np.array([5.0]), 0, tag=9)
        return None

    out = run_ranks(3, program)
    assert out.results[0] == (5.0, 2)


def test_nonblocking_overlap():
    def program(mpi):
        if mpi.rank == 0:
            req = yield from mpi.isend(np.array([3.0]), 1)
            yield from mpi.wait(req)
            return None
        buf = np.zeros(1)
        req = yield from mpi.irecv(buf, 0)
        yield from mpi.compute(50.0)          # overlap
        status = yield from mpi.wait(req)
        return buf[0], status.count_bytes

    out = run_ranks(2, program)
    assert out.results[1] == (3.0, 8)


def test_message_ordering_same_pair():
    """Sends between one pair arrive (and match) in order."""
    def program(mpi):
        n = 10
        if mpi.rank == 0:
            for i in range(n):
                yield from mpi.send(np.array([float(i)]), 1, tag=1)
            return None
        got = []
        buf = np.zeros(1)
        for _ in range(n):
            yield from mpi.recv(buf, 0, tag=1)
            got.append(buf[0])
        return got

    out = run_ranks(2, program)
    assert out.results[1] == [float(i) for i in range(10)]


def test_tag_selectivity():
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.array([1.0]), 1, tag=10)
            yield from mpi.send(np.array([2.0]), 1, tag=20)
            return None
        buf = np.zeros(1)
        yield from mpi.recv(buf, 0, tag=20)    # out of arrival order
        first = buf[0]
        yield from mpi.recv(buf, 0, tag=10)
        return first, buf[0]

    out = run_ranks(2, program)
    assert out.results[1] == (2.0, 1.0)


def test_rendezvous_large_message():
    """Messages above the eager limit take the RTS/CTS/DATA path with
    pin/unpin on both sides and no host copies."""
    elements = 4096  # 32 KiB > 16 KiB eager limit

    def program(mpi):
        if mpi.rank == 0:
            data = np.arange(elements, dtype=np.float64)
            yield from mpi.send(data, 1, tag=2)
            return None
        buf = np.zeros(elements)
        yield from mpi.recv(buf, 0, tag=2)
        return float(buf[1000]), float(buf[-1])

    out = run_ranks(2, program)
    assert out.results[1] == (1000.0, float(elements - 1))
    sender = out.contexts[0]
    receiver = out.contexts[1]
    assert sender.progress.stats.sends_rndv == 1
    assert sender.node.pinned.pins == 1
    assert sender.node.pinned.live_registrations == 0
    assert receiver.node.pinned.pins == 1
    assert receiver.node.pinned.live_registrations == 0
    # zero receive-side host copies (DMA lands in the pinned user buffer)
    assert receiver.progress.matching.stats.copies == 0


def test_rendezvous_unexpected_rts():
    """An RTS arriving before the receive is posted waits in the
    unexpected queue; posting the receive completes the handshake."""
    elements = 4096

    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.full(elements, 7.0), 1)
            return None
        yield from mpi.compute(300.0)   # RTS beats the recv post
        buf = np.zeros(elements)
        yield from mpi.recv(buf, 0)
        return float(buf[0])

    out = run_ranks(2, program)
    assert out.results[1] == 7.0


def test_self_send():
    def program(mpi):
        buf = np.zeros(2)
        req = yield from mpi.irecv(buf, 0, tag=5)
        yield from mpi.send(np.array([1.0, 2.0]), 0, tag=5)
        yield from mpi.wait(req)
        return buf.tolist()

    out = run_ranks(1, program)
    assert out.results[0] == [1.0, 2.0]
