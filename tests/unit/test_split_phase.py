"""Tests for the split-phase (non-blocking) reduce extension."""

import dataclasses

import numpy as np
import pytest

from repro.config import PipelineParams, quiet_cluster
from repro.core import AbBroadcast, SplitPhaseReduce
from repro.errors import AbProtocolError, ProcessFailed
from repro.mpich.operations import MAX, SUM
from repro.mpich.rank import MpiBuild
from conftest import contribution, expected_sum, run_ranks


def split_program(*, elements=4, root=0, overlap_us=300.0, rounds=1,
                  skew_fn=None, op=SUM):
    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        results = []
        timings = []
        for i in range(rounds):
            if skew_fn is not None:
                yield from mpi.compute(skew_fn(mpi.rank, i))
            data = contribution(mpi.rank, elements) * (i + 1)
            t0 = mpi.now
            handle = yield from split.start(data, op, root, mpi.comm_world)
            start_cost = mpi.now - t0
            yield from mpi.compute(overlap_us)
            t1 = mpi.now
            result = yield from split.wait(handle)
            wait_cost = mpi.now - t1
            timings.append((start_cost, wait_cost))
            results.append(None if result is None else
                           np.array(result, copy=True))
        yield from mpi.compute(200.0)
        yield from mpi.barrier()
        return results, timings

    return program


@pytest.mark.parametrize("size", [1, 2, 4, 8, 16])
def test_split_reduce_correct(size):
    out = run_ranks(size, split_program(), build=MpiBuild.AB)
    results, _ = out.results[0]
    assert np.allclose(results[0], expected_sum(size, 4))


@pytest.mark.parametrize("root", [0, 2, 5])
def test_split_reduce_nonzero_root(root):
    out = run_ranks(8, split_program(root=root), build=MpiBuild.AB)
    results, _ = out.results[root]
    assert np.allclose(results[0], expected_sum(8, 4))


def test_root_start_does_not_block():
    """The whole point: the root's start() returns immediately even though
    a child is 400us late, and the overlapped compute hides the tree."""
    skew = lambda rank, i: 400.0 if rank == 3 else 0.0
    out = run_ranks(8, split_program(overlap_us=800.0, skew_fn=skew),
                    build=MpiBuild.AB)
    results, timings = out.results[0]
    start_cost, wait_cost = timings[0]
    assert start_cost < 20.0
    assert wait_cost < 20.0            # the 800us compute hid everything
    assert np.allclose(results[0], expected_sum(8, 4))
    assert out.contexts[0].ab_engine.stats.children_async >= 1


def test_wait_blocks_when_overlap_too_short():
    skew = lambda rank, i: 600.0 if rank == 1 else 0.0
    out = run_ranks(4, split_program(overlap_us=50.0, skew_fn=skew),
                    build=MpiBuild.AB)
    results, timings = out.results[0]
    _, wait_cost = timings[0]
    assert wait_cost > 400.0           # had to wait for the late leaf
    assert np.allclose(results[0], expected_sum(4, 4))


def test_back_to_back_split_reduces():
    rounds = 4
    out = run_ranks(8, split_program(rounds=rounds), build=MpiBuild.AB)
    results, _ = out.results[0]
    for i in range(rounds):
        assert np.allclose(results[i], expected_sum(8, 4) * (i + 1))


def test_split_reduce_max_op():
    out = run_ranks(8, split_program(op=MAX), build=MpiBuild.AB)
    results, _ = out.results[0]
    assert np.allclose(results[0], 8.0)


def test_mixing_split_and_blocking_reduces():
    """Split-phase and ordinary blocking reduces interleave correctly
    (instances stay matched)."""
    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        h = yield from split.start(contribution(mpi.rank, 2), SUM, 0,
                                   mpi.comm_world)
        blocking = yield from mpi.reduce(contribution(mpi.rank, 2) * 10.0,
                                         op=SUM, root=0)
        first = yield from split.wait(h)
        yield from mpi.compute(200.0)
        yield from mpi.barrier()
        if mpi.rank == 0:
            return float(first[0]), float(blocking[0])
        return None

    out = run_ranks(8, program, build=MpiBuild.AB)
    assert out.results[0] == (36.0, 360.0)


def test_signals_unpinned_after_completion():
    out = run_ranks(8, split_program(), build=MpiBuild.AB)
    for ctx in out.contexts:
        assert ctx.ab_engine.bcast is None
        assert not ctx.node.nic.signals_enabled
    assert out.contexts[0].ab_engine.descriptors.empty


def test_handle_properties():
    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        h = yield from split.start(np.array([1.0]), SUM, 0, mpi.comm_world)
        if mpi.rank != 0:
            assert h.trigger.fired        # non-root completes at start
        result = yield from split.wait(h)
        assert h.trigger.fired
        yield from mpi.compute(100.0)
        yield from mpi.barrier()
        return None if result is None else float(result[0])

    out = run_ranks(4, program, build=MpiBuild.AB)
    assert out.results[0] == 4.0


def test_root_children_follow_the_auto_resolved_tree(tmp_path, monkeypatch):
    """Regression: under ``tree_shape="auto"`` the non-root ranks send along
    the tuned-table shape for the message size, so the root must take its
    children from the same derivation — not from ``rank.tree_shape``, the
    binomial fallback, which left it waiting on ranks that report to
    someone else (DeadlockError on a table that resolves to ``chain``)."""
    import dataclasses

    from repro.config import quiet_cluster
    from repro.schedule.table import (TABLE_ENV, TunedEntry, TuningTable,
                                      clear_table_cache)

    path = tmp_path / "table.json"
    TuningTable(entries=[
        TunedEntry(topology="crossbar", nranks=8, min_msg_bytes=0,
                   max_msg_bytes=1 << 62, tree_shape="chain", tree_radix=2),
    ]).dump(path)
    monkeypatch.setenv(TABLE_ENV, str(path))
    clear_table_cache()
    try:
        config = quiet_cluster(8, seed=0)
        config = dataclasses.replace(config, mpi=dataclasses.replace(
            config.mpi, tree_shape="auto"))
        out = run_ranks(8, split_program(), build=MpiBuild.AB,
                        config=config)
        assert out.contexts[1].node.tree_shape_for(32).name == "chain"
    finally:
        clear_table_cache()
    results, _ = out.results[0]
    assert np.allclose(results[0], expected_sum(8, 4))


def test_second_split_phase_reduce_keeps_the_first_root():
    """Regression: building another ``SplitPhaseReduce`` on a rank while
    the first one's root is outstanding used to orphan that root (the run
    deadlocked); the outstanding root lives in the engine's descriptor
    queue, so every instance completes it."""
    def program(mpi):
        first = SplitPhaseReduce(mpi.ab_engine)
        h = yield from first.start(contribution(mpi.rank, 4), SUM, 0,
                                   mpi.comm_world)
        SplitPhaseReduce(mpi.ab_engine)
        result = yield from first.wait(h)
        yield from mpi.barrier()
        return None if result is None else float(result[0])

    out = run_ranks(8, program, build=MpiBuild.AB)
    assert out.results[0] == 36.0


def test_second_ab_broadcast_on_one_engine_is_refused():
    """A rank has one AB broadcast: a second would silently replace the
    first and the communicators registered with it."""
    def program(mpi):
        AbBroadcast(mpi.ab_engine)
        AbBroadcast(mpi.ab_engine)
        yield from mpi.compute(0.0)

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(2, program, build=MpiBuild.AB)
    assert isinstance(exc.value.original, AbProtocolError)
    assert "already has an AB broadcast" in str(exc.value.original)


def test_split_root_inside_a_blocking_reduce_follows_fig3():
    """A rank that holds an outstanding split-phase root while it is an
    internal node of a blocking AB reduce (rank 2: it has child 3 in the
    binomial tree rooted at 0) disables signals in that reduce's
    synchronous component and re-enables them at its exit: both results
    are right and the assert-mode monitor stays clean."""
    from repro.config import paper_cluster

    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        got = []
        for i in range(5):
            data = contribution(mpi.rank, 4) * (i + 1)
            h = yield from split.start(data, SUM, 2, mpi.comm_world)
            blocking = yield from mpi.reduce(data * 10.0, op=SUM, root=0)
            result = yield from split.wait(h)
            got.append((None if result is None else float(result[0]),
                        None if blocking is None else float(blocking[0])))
        yield from mpi.compute(200.0)
        yield from mpi.barrier()
        return got

    out = run_ranks(8, program, build=MpiBuild.AB,
                    config=paper_cluster(8, seed=2))
    assert [r for r, _ in out.results[2]] == [36.0 * k for k in range(1, 6)]
    assert [b for _, b in out.results[0]] == [360.0 * k for k in range(1, 6)]
    assert out.cluster.monitor.ok and out.cluster.monitor.checks > 0
    engine = out.contexts[2].ab_engine
    assert engine.stats.ab_reduces == 5 and engine.descriptors.empty


@pytest.mark.parametrize("elements, pipeline, refused", [
    (2048, None, False),
    (2049, None, True),
    (4096, PipelineParams(segment_size_bytes=2048), False),
])
def test_rendezvous_sized_split_reduce_is_refused(elements, pipeline,
                                                  refused):
    """Beyond the eager limit with no segment plan there is no AB path: the
    non-roots fell back to the default reduction while the root waited for
    AB packets that never came (DeadlockError).  Every rank now refuses in
    one line; a segmented payload of the same size still runs."""
    config = quiet_cluster(4)
    if pipeline is not None:
        config = dataclasses.replace(config, pipeline=pipeline)
    program = split_program(elements=elements)
    if not refused:
        out = run_ranks(4, program, build=MpiBuild.AB, config=config)
        assert np.allclose(out.results[0][0][0], expected_sum(4, elements))
        return
    with pytest.raises(ProcessFailed) as exc:
        run_ranks(4, program, build=MpiBuild.AB, config=config)
    assert isinstance(exc.value.original, ValueError)
    assert str(exc.value.original) == (
        f"split-phase reduce of {elements * 8} bytes is rendezvous-sized: "
        "no application bypass")
