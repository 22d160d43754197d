"""Error-path and edge-case coverage across the stack."""

import numpy as np
import pytest

from repro.errors import (AbProtocolError, MpiError, ProcessFailed,
                          TruncationError)
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from conftest import run_ranks


def test_recv_buffer_truncation():
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.zeros(8), 1)
            return None
        tiny = np.zeros(1)
        yield from mpi.recv(tiny, 0)

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program)
    assert isinstance(exc.value.original, TruncationError)


@pytest.mark.parametrize("build", [MpiBuild.DEFAULT, MpiBuild.AB])
def test_reduce_root_out_of_range(build):
    def program(mpi):
        yield from mpi.reduce(np.zeros(1), op=SUM, root=99)

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program, build=build)
    assert isinstance(exc.value.original, ValueError)


def test_send_to_rank_outside_comm():
    def program(mpi):
        yield from mpi.send(np.zeros(1), 5)

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program)
    assert isinstance(exc.value.original, MpiError)


def test_bcast_root_without_data():
    def program(mpi):
        yield from mpi.bcast(None, root=0, count=1)

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program)
    assert isinstance(exc.value.original, MpiError)


def test_bcast_nonroot_without_buffer_or_count():
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.bcast(np.zeros(1), root=0)
        else:
            yield from mpi.bcast(None, root=0)

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program)
    assert isinstance(exc.value.original, MpiError)


def test_mismatched_collective_order_deadlocks_cleanly():
    """Ranks disagreeing on the collective (a classic app bug) must fail
    with a diagnosable deadlock, not hang or corrupt data."""
    from repro.errors import DeadlockError

    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.barrier()
        else:
            buf = np.zeros(1)
            yield from mpi.recv(buf, 0, tag=12345)   # never sent

    with pytest.raises(DeadlockError) as exc:
        run_ranks(2, program)
    assert len(exc.value.blocked) >= 1


def test_zero_byte_messages_roundtrip():
    def program(mpi):
        empty = np.empty(0)
        if mpi.rank == 0:
            yield from mpi.send(empty, 1, tag=1)
            return None
        status = yield from mpi.recv(None, 0, tag=1)
        return status.count_bytes

    out = run_ranks(2, program)
    assert out.results[1] == 0


def test_rogue_instance_packet_is_parked_not_folded():
    """A rogue AB packet naming an instance no descriptor has is parked in
    the AB unexpected queue; the pending descriptor of its sender stays
    pending with its accumulator untouched."""
    from repro.mpich.message import AbHeader, Envelope, TransferKind
    from repro.sim.cpu import Ledger

    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(100.0)
        yield from mpi.reduce(np.ones(2), op=SUM, root=0)
        yield from mpi.compute(400.0)
        yield from mpi.barrier()

    out = run_ranks(4, program, build=MpiBuild.AB)
    engine = out.contexts[2].ab_engine
    from repro.core.descriptor import ReduceDescriptor
    desc = ReduceDescriptor(context_id=555, root_world=0, instance=7,
                            parent_world=0, children_world=[3], op=SUM,
                            acc=np.zeros(2), created_at=0.0)
    engine.descriptors.push(desc)
    rogue = Envelope(src=3, dst=2, tag=1, context_id=555,
                     kind=TransferKind.EAGER, data=np.ones(2), nbytes=16,
                     ab=AbHeader(root=0, instance=99))
    assert engine.preprocess(rogue, Ledger())
    assert desc.is_pending(3) and not desc.removed
    assert np.array_equal(desc.acc, np.zeros(2))
    entry = engine.unexpected.take_for(3, 99, -1, 555)
    assert entry is not None and np.array_equal(entry.data, np.ones(2))
    assert engine.unexpected.empty
