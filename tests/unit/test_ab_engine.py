"""Behavioural tests for the application-bypass engine (paper Figs. 3-5)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import AbParams, quiet_cluster
from repro.mpich.operations import MAX, PROD, SUM
from repro.mpich.rank import MpiBuild
from conftest import contribution, expected_sum, run_ranks


def ab_config(size, seed=0, **ab_kwargs):
    cfg = quiet_cluster(size, seed=seed)
    if ab_kwargs:
        cfg = replace(cfg, ab=AbParams(**ab_kwargs))
    return cfg


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8, 13, 16, 32])
def test_ab_reduce_correct_all_sizes(size):
    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        yield from mpi.barrier()
        return None if result is None else result

    out = run_ranks(size, program, build=MpiBuild.AB)
    assert np.allclose(out.results[0], expected_sum(size, 4))


@pytest.mark.parametrize("root", [0, 1, 5, 7])
def test_ab_reduce_nonzero_root(root):
    size = 8

    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 2), op=SUM,
                                       root=root)
        yield from mpi.barrier()
        return None if result is None else result

    out = run_ranks(size, program, build=MpiBuild.AB)
    assert np.allclose(out.results[root], expected_sum(size, 2))


@pytest.mark.parametrize("op,expected", [(SUM, 36.0), (PROD, 40320.0),
                                         (MAX, 8.0)])
def test_ab_reduce_ops(op, expected):
    def program(mpi):
        result = yield from mpi.reduce(np.array([float(mpi.rank + 1)]),
                                       op=op, root=0)
        yield from mpi.barrier()
        return None if result is None else float(result[0])

    out = run_ranks(8, program, build=MpiBuild.AB)
    assert out.results[0] == expected


def test_internal_node_exits_early_under_skew():
    """The defining behaviour: rank 2 (parent of late rank 3) leaves
    MPI_Reduce without waiting and the result is still correct."""
    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(500.0)
        t0 = mpi.now
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        call_us = mpi.now - t0
        yield from mpi.compute(800.0)   # async completion happens here
        yield from mpi.barrier()
        return call_us, (None if result is None else result)

    out = run_ranks(8, program, build=MpiBuild.AB, seed=1)
    call_2 = out.results[2][0]
    assert call_2 < 50.0, f"rank 2 blocked {call_2}us inside MPI_Reduce"
    assert np.allclose(out.results[0][1], expected_sum(8, 4))
    # rank 2's descriptor was completed asynchronously by a NIC signal
    eng = out.contexts[2].ab_engine
    assert eng.stats.descriptors_completed_async >= 1
    assert eng.stats.children_async >= 1
    assert out.cluster.nodes[2].nic.stats.signals_raised >= 1


def test_nab_internal_node_blocks_under_same_skew():
    """Contrast case: the default build keeps rank 2 inside MPI_Reduce."""
    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(500.0)
        t0 = mpi.now
        yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM, root=0)
        call_us = mpi.now - t0
        yield from mpi.barrier()
        return call_us

    out = run_ranks(8, program, build=MpiBuild.DEFAULT, seed=1)
    assert out.results[2] > 400.0


def test_early_messages_use_ab_unexpected_queue():
    """AB messages that the progress engine sees before the local reduce
    has built a descriptor are buffered once in the custom AB unexpected
    queue and later consumed from it directly (Sec. V-B)."""
    def program(mpi):
        if mpi.rank == 7:
            # rank 7 delays a user message to rank 4, then reduces
            yield from mpi.compute(200.0)
            yield from mpi.send(np.array([1.0]), 4, tag=99)
        if mpi.rank == 4:
            # While blocked here, children 5 and 6's reduce contributions
            # arrive and must be queued (no descriptor exists yet).
            buf = np.zeros(1)
            yield from mpi.recv(buf, 7, tag=99)
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        yield from mpi.compute(400.0)
        yield from mpi.barrier()
        return None if result is None else result

    out = run_ranks(8, program, build=MpiBuild.AB)
    assert np.allclose(out.results[0], expected_sum(8, 4))
    eng = out.contexts[4].ab_engine
    assert eng.stats.unexpected_one_copy >= 1
    assert eng.stats.children_from_unexpected >= 1
    assert eng.unexpected.empty          # fully drained


def test_zero_copy_for_expected_and_late_messages():
    """Expected/late AB messages are combined straight from the packet
    buffer (Sec. V-C: 100% copy reduction)."""
    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        yield from mpi.compute(300.0)
        yield from mpi.barrier()
        return None if result is None else result

    out = run_ranks(8, program, build=MpiBuild.AB)
    for rank in (2, 4, 6):                # internal nodes
        eng = out.contexts[rank].ab_engine
        assert eng.stats.expected_zero_copy >= 1
        # no AB-queue copies happened for these on-time messages
        assert eng.stats.ab_copies == eng.stats.unexpected_one_copy


def test_signals_disabled_when_all_work_done():
    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(200.0)
        yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM, root=0)
        yield from mpi.compute(500.0)
        yield from mpi.barrier()

    out = run_ranks(8, program, build=MpiBuild.AB)
    for ctx in out.contexts:
        assert not ctx.node.nic.signals_enabled
        assert ctx.ab_engine.descriptors.empty
        assert ctx.ab_engine.unexpected.empty


def test_root_and_leaves_fall_back():
    def program(mpi):
        yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM, root=0)
        yield from mpi.barrier()

    out = run_ranks(8, program, build=MpiBuild.AB)
    assert out.contexts[0].ab_engine.stats.root_reduces == 1
    assert out.contexts[0].ab_engine.stats.ab_reduces == 0
    for leaf in (1, 3, 5, 7):
        assert out.contexts[leaf].ab_engine.stats.leaf_sends == 1
    for internal in (2, 4, 6):
        assert out.contexts[internal].ab_engine.stats.ab_reduces == 1


def test_large_message_falls_back_everywhere():
    elements = 4096   # 32 KiB > both eager limits

    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, elements),
                                       op=SUM, root=0)
        yield from mpi.barrier()
        return None if result is None else result

    out = run_ranks(4, program, build=MpiBuild.AB)
    assert np.allclose(out.results[0], expected_sum(4, elements))
    for ctx in out.contexts:
        assert ctx.ab_engine.stats.fallback_size == 1
        assert ctx.ab_engine.stats.ab_reduces == 0


def test_back_to_back_reduces_with_persistently_late_child():
    """The paper's Sec. IV-D scenario: 'process six is consistently late in
    performing its send to process four' across several back-to-back
    reductions — each late message must match its own reduction instance."""
    rounds = 6

    def program(mpi):
        results = []
        for i in range(rounds):
            if mpi.rank == 6:
                yield from mpi.compute(120.0)
            data = np.full(4, float((mpi.rank + 1) * (i + 1)))
            result = yield from mpi.reduce(data, op=SUM, root=0)
            if mpi.rank == 0:
                results.append(float(result[0]))
        yield from mpi.compute(600.0)
        yield from mpi.barrier()
        return results

    out = run_ranks(8, program, build=MpiBuild.AB)
    expect = [36.0 * (i + 1) for i in range(rounds)]
    assert out.results[0] == expect
    eng4 = out.contexts[4].ab_engine
    assert eng4.descriptors.max_len >= 1
    assert eng4.descriptors.empty


def test_overlapping_reductions_multiple_outstanding():
    """Without barriers and with a very late child, several reductions are
    outstanding at once on the parent (descriptor queue depth > 1)."""
    rounds = 4

    def program(mpi):
        for i in range(rounds):
            if mpi.rank == 3:
                yield from mpi.compute(400.0)    # rank 3 always behind
            data = np.full(2, float(mpi.rank + 1 + i))
            result = yield from mpi.reduce(data, op=SUM, root=0)
            if mpi.rank == 0:
                expected = sum(r + 1 + i for r in range(mpi.size))
                assert np.allclose(result, expected)
        yield from mpi.compute(2000.0)
        yield from mpi.barrier()

    out = run_ranks(4, program, build=MpiBuild.AB)
    eng2 = out.contexts[2].ab_engine   # parent of rank 3
    assert eng2.descriptors.max_len >= 2
    assert eng2.descriptors.empty


def test_concurrent_reductions_different_roots():
    def program(mpi):
        r0 = yield from mpi.reduce(contribution(mpi.rank, 2), op=SUM, root=0)
        r5 = yield from mpi.reduce(contribution(mpi.rank, 2), op=SUM, root=5)
        yield from mpi.compute(300.0)
        yield from mpi.barrier()
        return (None if r0 is None else r0), (None if r5 is None else r5)

    out = run_ranks(8, program, build=MpiBuild.AB)
    assert np.allclose(out.results[0][0], expected_sum(8, 2))
    assert np.allclose(out.results[5][1], expected_sum(8, 2))


def test_exit_delay_window_catches_children():
    """With a generous window, on-time children complete inside
    MPI_Reduce and no signals are needed."""
    def program(mpi):
        yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM, root=0)
        yield from mpi.barrier()

    cfg = ab_config(8, exit_delay_policy="fixed", exit_delay_coeff_us=200.0)
    out = run_ranks(8, program, build=MpiBuild.AB, config=cfg)
    assert out.cluster.total_signals() == 0
    for rank in (2, 4, 6):
        eng = out.contexts[rank].ab_engine
        assert eng.stats.descriptors_completed_sync == 1
        assert eng.stats.window_catches == 1


@pytest.mark.parametrize("coeff_us, caught", [(500.0, True), (5.0, False)])
def test_exit_delay_window_spans_the_segment_window(coeff_us, caught):
    """The segmented route lingers in the same exit-delay window: one catch
    (every segment folded and forwarded inside MPI_Reduce, no signals) or
    one expiry (the segments complete asynchronously) per call — not one
    per segment."""
    from repro.config import PipelineParams

    def program(mpi):
        yield from mpi.reduce(contribution(mpi.rank, 1024), op=SUM, root=0)
        yield from mpi.barrier()

    cfg = replace(
        ab_config(8, exit_delay_policy="fixed", exit_delay_coeff_us=coeff_us),
        pipeline=PipelineParams(segment_size_bytes=2048,
                                max_inflight_segments=2))
    out = run_ranks(8, program, build=MpiBuild.AB, config=cfg)
    assert (out.cluster.total_signals() == 0) == caught
    for rank in (2, 4, 6):
        eng = out.contexts[rank].ab_engine
        assert eng.pipeline.stats.pipelined_reduces == 1
        assert eng.stats.window_catches == (1 if caught else 0)
        assert eng.stats.window_expires == (0 if caught else 1)
        assert eng.stats.descriptors_completed_sync == (4 if caught else 0)
        assert eng.stats.descriptors_completed_async == (0 if caught else 4)


def test_reuse_mpich_queues_ablation_costs_more():
    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(150.0)
        yield from mpi.reduce(contribution(mpi.rank, 128), op=SUM, root=0)
        yield from mpi.compute(400.0)
        yield from mpi.barrier()

    base = run_ranks(8, program, build=MpiBuild.AB,
                     config=ab_config(8, reuse_mpich_queues=False))
    reuse = run_ranks(8, program, build=MpiBuild.AB,
                      config=ab_config(8, reuse_mpich_queues=True))

    def reduce_cpu(out, rank):
        usage = out.cpu_usage(rank)
        return sum(v for k, v in usage.items() if k != "app")

    assert reduce_cpu(reuse, 2) > reduce_cpu(base, 2)
    assert reuse.contexts[2].ab_engine.stats.ab_copies > \
        base.contexts[2].ab_engine.stats.ab_copies


def test_ab_single_rank():
    def program(mpi):
        recv = np.zeros(3)
        result = yield from mpi.reduce(np.arange(3.0), op=SUM, root=0,
                                       recvbuf=recv)
        return result.tolist()

    out = run_ranks(1, program, build=MpiBuild.AB)
    assert out.results[0] == [0.0, 1.0, 2.0]
