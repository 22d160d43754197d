"""Tests for the application-bypass broadcast extension (ref. [8])."""

import numpy as np
import pytest

from repro.core.broadcast import AbBroadcast
from repro.errors import AbProtocolError, ProcessFailed
from repro.mpich.rank import MpiBuild
from conftest import run_ranks


def bcast_program(payload_fn, *, pre_delay_fn=None, post_compute=300.0,
                  root=0, rounds=1):
    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        bcaster.register_comm(mpi.comm_world)
        outs = []
        for i in range(rounds):
            if pre_delay_fn is not None:
                yield from mpi.compute(pre_delay_fn(mpi.rank, i))
            if mpi.rank == root:
                out = yield from bcaster.bcast(payload_fn(i), root,
                                               mpi.comm_world)
            else:
                out = yield from bcaster.bcast(None, root, mpi.comm_world)
            outs.append(np.array(out, copy=True))
        yield from mpi.compute(post_compute)
        yield from mpi.barrier()
        return outs

    return program


@pytest.mark.parametrize("size", [2, 3, 4, 8, 13, 16])
def test_ab_bcast_correct(size):
    program = bcast_program(lambda i: np.arange(5.0))
    out = run_ranks(size, program, build=MpiBuild.AB)
    for r in range(size):
        assert np.allclose(out.results[r][0], np.arange(5.0))


def test_ab_bcast_nonzero_root():
    program = bcast_program(lambda i: np.array([3.0, 4.0]), root=3)
    out = run_ranks(8, program, build=MpiBuild.AB)
    for r in range(8):
        assert np.allclose(out.results[r][0], [3.0, 4.0])


def test_ab_bcast_back_to_back_instances():
    rounds = 5
    program = bcast_program(lambda i: np.full(3, float(i)), rounds=rounds)
    out = run_ranks(8, program, build=MpiBuild.AB)
    for r in range(8):
        for i in range(rounds):
            assert np.allclose(out.results[r][i], float(i))


def test_late_parent_does_not_delay_subtree():
    """The defining ab-bcast property: rank 4 (parent of 5, 6) is busy
    computing when its copy arrives; the hook forwards to 5 and 6 anyway,
    so their bcast calls complete while 4 is still computing."""
    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        bcaster.register_comm(mpi.comm_world)
        if mpi.rank == 4:
            yield from mpi.compute(500.0)     # rank 4 is very late
        if mpi.rank == 0:
            out = yield from bcaster.bcast(np.array([1.0]), 0, mpi.comm_world)
        else:
            out = yield from bcaster.bcast(None, 0, mpi.comm_world)
        done = mpi.now
        yield from mpi.compute(100.0)
        yield from mpi.barrier()
        return done, float(out[0])

    out = run_ranks(8, program, build=MpiBuild.AB)
    done_5 = out.results[5][0]
    done_4 = out.results[4][0]
    assert out.results[5][1] == 1.0
    # rank 5 finished its bcast long before its parent even looked at it
    assert done_5 < 100.0
    assert done_4 >= 500.0
    eng4 = out.contexts[4].ab_engine
    bc4 = eng4.bcast
    assert bc4.stats.forwards == 2            # forwarded to 5 and 6
    assert bc4.stats.early_arrivals == 1      # its own copy waited for it


def test_early_arrival_consumed_without_blocking():
    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        bcaster.register_comm(mpi.comm_world)
        if mpi.rank == 1:
            yield from mpi.compute(300.0)     # data arrives first
        if mpi.rank == 0:
            out = yield from bcaster.bcast(np.array([2.0]), 0, mpi.comm_world)
        else:
            t0 = mpi.now
            out = yield from bcaster.bcast(None, 0, mpi.comm_world)
            if mpi.rank == 1:
                # data had been waiting for 300us: the call must not block
                assert mpi.now - t0 < 20.0
        yield from mpi.barrier()
        return float(out[0])

    out = run_ranks(4, program, build=MpiBuild.AB)
    assert all(v == 2.0 for v in out.results)
    assert out.contexts[1].ab_engine.bcast.stats.early_arrivals == 1


def test_bcast_into_caller_buffer():
    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        bcaster.register_comm(mpi.comm_world)
        if mpi.rank == 0:
            out = yield from bcaster.bcast(np.array([5.0, 6.0]), 0,
                                           mpi.comm_world)
        else:
            buf = np.zeros(2)
            out = yield from bcaster.bcast(buf, 0, mpi.comm_world)
            assert out is buf
        yield from mpi.barrier()
        return out.tolist()

    out = run_ranks(4, program, build=MpiBuild.AB)
    assert all(v == [5.0, 6.0] for v in out.results)


def test_bcast_requires_registration():
    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        # no register_comm on purpose
        if mpi.rank == 0:
            yield from bcaster.bcast(np.array([1.0]), 0, mpi.comm_world)
        return None

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program, build=MpiBuild.AB)
    assert isinstance(exc.value.original, AbProtocolError)


def test_bcast_signals_stay_pinned():
    program = bcast_program(lambda i: np.array([1.0]))
    out = run_ranks(4, program, build=MpiBuild.AB)
    # the extension pins signals for its lifetime
    for ctx in out.contexts:
        assert ctx.node.nic.signals_enabled
        assert ctx.ab_engine.bcast is not None


def test_stand_alone_bcast_between_scheduled_allreduces():
    """A pipelined allreduce tells the broadcaster where its segments go
    (its steps' chain, here — not the configured binomial tree), keyed by
    broadcast instance: a stand-alone bcast from another root, issued by a
    fast rank while slower ranks are still inside the allreduce, is routed
    by the configured tree and the next allreduce by its own steps."""
    from dataclasses import replace

    from repro.config import PipelineParams, quiet_cluster
    from repro.core.interpreter import execute_schedule
    from repro.mpich.operations import SUM
    from repro.schedule import lower
    from repro.topo import make_tree_shape

    size, elements, rounds = 8, 1024, 3
    config = replace(quiet_cluster(size, seed=7), pipeline=PipelineParams(
        segment_size_bytes=2048, max_inflight_segments=3))
    chain = lower("allreduce.pipelined", make_tree_shape("chain"), size,
                  nseg=4).validate()

    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        bcaster.register_comm(mpi.comm_world)
        data = np.arange(elements, dtype=np.float64) * (mpi.rank + 1)
        seen = []
        for i in range(rounds):
            total = yield from execute_schedule(mpi, chain, data, SUM)
            if mpi.rank == 3:
                token = yield from bcaster.bcast(np.full(4, 42.0 + i), 3,
                                                 mpi.comm_world)
            else:
                token = yield from bcaster.bcast(None, 3, mpi.comm_world,
                                                 count=4)
            seen.append((total[1], token[0]))
        return seen

    out = run_ranks(size, program, build=MpiBuild.AB, config=config)
    expected = [(size * (size + 1) / 2, 42.0 + i) for i in range(rounds)]
    assert all(seen == expected for seen in out.results)
    for ctx in out.contexts:
        assert ctx.ab_engine.bcast._scheduled == {}
