"""End-to-end scenarios for the segmented pipeline (repro.pipeline).

The acceptance suite for the subsystem: a disarmed config must be
bit-identical to a pipeline-free build (same results, same makespan,
same signal count); an armed one must beat the whole-message path on
large messages while producing the same sums; the pipelined allreduce
must ride the segmented reduce + broadcast overlap; a crash mid-pipeline
with segments in flight must heal and finish with honest sums; and every
run must be deterministic.  Everything executes under the autouse
ASSERT-mode InvariantMonitor (tests/conftest.py), so any INV-* violation
— INV-SEGMENT's emit/fold conservation included — fails the test by
raising.
"""

from dataclasses import replace

import numpy as np

from repro import MpiBuild, quiet_cluster
from repro.config import FaultParams, PipelineParams
from repro.bench.faulted import fault_reduce_benchmark
from repro.mpich.operations import SUM

from conftest import run_ranks

ARMED = PipelineParams(segment_size_bytes=1024, max_inflight_segments=4)


def _reduce_program(elements, iterations=3):
    def program(mpi):
        collected = []
        for i in range(iterations):
            # Barrier-separated iterations: each reduce starts on a cold
            # tree, so the makespan reflects the per-collective latency
            # (back-to-back eager reduces already overlap across
            # iterations and would mask the pipelining win).
            yield from mpi.barrier()
            data = np.arange(elements, dtype=np.float64) + mpi.rank + i
            result = yield from mpi.reduce(data, op=SUM, root=0)
            if mpi.rank == 0:
                collected.append(np.array(result, copy=True))
        yield from mpi.barrier()
        return collected
    return program


def _run(size, program, *, pipeline=None, build=MpiBuild.AB, seed=3):
    config = quiet_cluster(size, seed=seed)
    if pipeline is not None:
        config = replace(config, pipeline=pipeline)
    return run_ranks(size, program, build=build, config=config)


# ---------------------------------------------------------------------------
# disarmed: bit-identical to a pipeline-free build
# ---------------------------------------------------------------------------

def test_disarmed_config_is_bit_identical():
    """segment_size_bytes=0 must not perturb the simulation at all:
    identical results, identical event count, identical makespan and
    signal totals — the whole disarmed-is-free guarantee."""
    program = _reduce_program(1024)
    plain = _run(8, program)
    disarmed = _run(8, program, pipeline=PipelineParams(segment_size_bytes=0))
    assert plain.finished_at == disarmed.finished_at
    assert plain.sim_counters() == disarmed.sim_counters()
    for a, b in zip(plain.results[0], disarmed.results[0]):
        assert np.array_equal(a, b)


def test_single_chunk_messages_keep_the_whole_message_path():
    """An armed config leaves small messages untouched: a one-segment
    plan declines, so latency and results match the disarmed run."""
    program = _reduce_program(32)  # 256B < one 1024B segment
    plain = _run(8, program)
    armed = _run(8, program, pipeline=ARMED)
    assert plain.finished_at == armed.finished_at
    for a, b in zip(plain.results[0], armed.results[0]):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# armed: same sums, better large-message latency, counters move
# ---------------------------------------------------------------------------

def test_pipelined_reduce_beats_whole_message_on_large_messages():
    program = _reduce_program(2048)  # 16 KiB
    plain = _run(16, program)
    armed = _run(16, program, pipeline=ARMED)
    for a, b in zip(armed.results[0], plain.results[0]):
        np.testing.assert_allclose(a, b, rtol=1e-12)
    assert armed.finished_at < plain.finished_at
    counters = armed.sim_counters()
    assert counters["segments_sent"] > 0
    assert counters["segments_folded_async"] > 0
    assert counters["pipelined_reduces"] > 0
    assert counters["inflight_hwm"] <= ARMED.max_inflight_segments
    assert "segments_sent" not in plain.sim_counters()


def test_pipelined_allreduce_traeff_overlap():
    """Allreduce rides the segmented reduce overlapped with the segmented
    broadcast: every rank gets the exact whole-message answer, faster."""
    def program(mpi):
        data = np.arange(1536, dtype=np.float64) * 0.5 + mpi.rank
        result = yield from mpi.allreduce(data, op=SUM)
        yield from mpi.barrier()
        return np.array(result, copy=True)

    plain = _run(16, program)
    armed = _run(16, program, pipeline=ARMED)
    for rank in range(16):
        np.testing.assert_allclose(armed.results[rank], plain.results[rank],
                                   rtol=1e-12)
        assert np.array_equal(armed.results[rank], armed.results[0])
    assert armed.finished_at < plain.finished_at
    assert armed.sim_counters()["pipelined_allreduces"] > 0


def test_auto_resolved_allreduce_uses_one_tree_for_both_legs(tmp_path,
                                                             monkeypatch):
    """Regression: under ``tree_shape="auto"`` the pipelined allreduce
    resolves the tuned-table shape once, from the message size, and both
    legs follow it.  The AB broadcast used to forward along
    ``rank.tree_shape`` — the binomial fallback — while the reduce climbed
    the tuned chain (forwards 0/4/0/8/0/4 on ranks 1..6 instead of one
    chain child each)."""
    from repro.config import MpiParams
    from repro.schedule.table import (TABLE_ENV, TunedEntry, TuningTable,
                                      clear_table_cache)

    size, elements, nseg = 8, 1024, 4
    path = tmp_path / "table.json"
    TuningTable(entries=[
        TunedEntry(topology="crossbar", nranks=size, min_msg_bytes=0,
                   max_msg_bytes=1 << 62, tree_shape="chain", tree_radix=2,
                   segment_size_bytes=2048, max_inflight_segments=3),
    ]).dump(path)
    monkeypatch.setenv(TABLE_ENV, str(path))
    clear_table_cache()

    def program(mpi):
        data = np.arange(elements, dtype=np.float64) * (mpi.rank + 1)
        result = yield from mpi.allreduce(data, op=SUM)
        return result

    try:
        config = replace(
            quiet_cluster(size, seed=3), mpi=MpiParams(tree_shape="auto"),
            pipeline=PipelineParams(segment_size_bytes="auto"))
        out = run_ranks(size, program, build=MpiBuild.AB, config=config)
    finally:
        clear_table_cache()
    expected = np.arange(elements, dtype=np.float64) * (size * (size + 1) / 2)
    for result in out.results:
        assert np.array_equal(result, expected)
    forwards = [ctx.ab_engine.bcast.stats.forwards
                for ctx in out.contexts]
    assert forwards == [0] + [nseg] * (size - 2) + [0]
    for ctx in out.contexts:
        assert ctx.ab_engine.pipeline.stats.pipelined_allreduces == 1


def test_armed_runs_are_deterministic():
    program = _reduce_program(2048)
    a = _run(16, program, pipeline=ARMED)
    b = _run(16, program, pipeline=ARMED)
    assert a.finished_at == b.finished_at
    assert a.sim_counters() == b.sim_counters()
    for x, y in zip(a.results[0], b.results[0]):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# faults: healing mid-pipeline with segments in flight
# ---------------------------------------------------------------------------

def test_crash_heals_mid_pipeline_with_segments_in_flight():
    """Rank 24 (internal: children 25, 26, 28) dies at 900us with the
    pipelined reduce mid-window.  The segment descriptors heal the live
    fringe onto rank 16, the in-flight iteration still completes with
    the full-cluster sum, and later iterations settle on the survivor
    sum.  Pacing stays inside the healed parent's RX budget — see
    DESIGN.md §11 on why overpacing would turn into honest abandons."""
    size = 32
    config = replace(
        quiet_cluster(size, seed=2),
        faults=FaultParams(crash_rank=24, crash_at_us=900.0, tree_heal=True,
                           descriptor_timeout_us=300.0, timeout_retries=2),
        pipeline=PipelineParams(segment_size_bytes=2048,
                                max_inflight_segments=3))
    res = fault_reduce_benchmark(config, MpiBuild.AB, elements=2048,
                                 iterations=6, gap_us=1200.0)
    full = size * (size + 1) / 2
    assert res.first_result == full          # in-flight iteration healed
    assert res.last_result == full - 25.0    # survivor sum (victim is 24)
    assert res.survivor_ok
    assert res.completed_ranks == size - 1
    assert res.sim_counters["subtrees_healed"] >= 1
    assert res.sim_counters["segments_sent"] > 0
