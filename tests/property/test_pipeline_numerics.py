"""Property tests for the segmented-pipeline numerical policy.

The contract (documented in ``repro.pipeline.numerics``):

* integer reductions: segmented == unsegmented **bit-identical**, for every
  dtype, op, message size, window, schedule and tree shape;
* float SUM: segmented and unsegmented agree within the analytic
  reassociation tolerance ``SAFETY * 2 * (n - 1) * eps`` (two different
  summation orders over the same ``n`` contributions);
* float MIN/MAX: order-exact, held to exact equality;
* the :class:`~repro.pipeline.Segmenter` plan partitions the buffer
  exactly — no element lost, duplicated or split.

These drive the full simulated stack at sizes sampled from 1..64, so
example counts are kept modest.
"""

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from repro import quiet_cluster
from repro.config import PipelineParams
from repro.mpich.operations import MAX, MIN, SUM
from repro.mpich.rank import MpiBuild
from repro.pipeline import Segmenter, plan_segments
from repro.pipeline.numerics import reassociation_tolerance
from conftest import run_ranks

OPS = {"sum": SUM, "min": MIN, "max": MAX}

scenario = st.fixed_dictionaries({
    "size": st.sampled_from([1, 2, 3, 5, 6, 8, 12, 16, 24, 33, 64]),
    "elements": st.sampled_from([5, 64, 192, 384]),
    "segment": st.sampled_from([256, 512, 2048]),
    "window": st.integers(min_value=1, max_value=4),
    "schedule": st.sampled_from(["fixed", "greedy"]),
    "shape": st.sampled_from(["binomial", "knomial", "chain", "bine"]),
})


def run_reduce(size, op, make_data, *, pipeline=None, shape="binomial",
               build=MpiBuild.AB):
    """One reduce to root 0; returns the root's result array."""
    config = quiet_cluster(size, seed=0)
    if shape != "binomial":
        config = replace(config, mpi=replace(config.mpi, tree_shape=shape))
    if pipeline is not None:
        config = replace(config, pipeline=pipeline)

    def program(mpi):
        result = yield from mpi.reduce(make_data(mpi.rank), op=op, root=0)
        yield from mpi.barrier()
        return None if result is None else np.array(result, copy=True)

    out = run_ranks(size, program, build=build, config=config)
    return out.results[0]


# ----------------------------------------------------------------------
# integers: bit-identical across every configuration axis
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(scenario,
       st.sampled_from(["int16", "int32", "int64"]),
       st.sampled_from(sorted(OPS)))
def test_integer_segmented_matches_unsegmented_exactly(params, dtype, opname):
    op = OPS[opname]

    def make_data(rank):
        # Mixed-sign, rank-dependent values; small enough that SUM over
        # 64 ranks stays in range for int16.
        base = np.arange(params["elements"], dtype=dtype) % 25
        return ((base - 12) * (1 + rank % 7)).astype(dtype)

    pipe = PipelineParams(segment_size_bytes=params["segment"],
                          max_inflight_segments=params["window"],
                          schedule=params["schedule"])
    plain = run_reduce(params["size"], op, make_data, shape=params["shape"])
    piped = run_reduce(params["size"], op, make_data, pipeline=pipe,
                       shape=params["shape"])
    assert piped.dtype == plain.dtype
    assert np.array_equal(piped, plain)
    # reassociation_tolerance documents the same contract: exact for ints.
    assert reassociation_tolerance(np.dtype(dtype), params["size"]) == 0.0


def test_integer_segmented_matches_default_build():
    """The segmented AB result is also bit-identical to the non-AB build."""

    def make_data(rank):
        return (np.arange(300, dtype=np.int64) * (rank + 1)) % 1000 - 500

    pipe = PipelineParams(segment_size_bytes=512)
    ab = run_reduce(16, SUM, make_data, pipeline=pipe)
    nab = run_reduce(16, SUM, make_data, pipeline=pipe,
                     build=MpiBuild.DEFAULT)
    assert np.array_equal(ab, nab)


# ----------------------------------------------------------------------
# floats: SUM within the documented reassociation tolerance,
#          MIN/MAX exactly
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(scenario, st.sampled_from(["float32", "float64"]))
def test_float_sum_within_reassociation_tolerance(params, dtype):
    def make_data(rank):
        # Spread magnitudes so reassociation error is actually exercised.
        base = np.linspace(0.1, 3.0, params["elements"], dtype=dtype)
        return (base * (1.0 + 0.37 * rank)).astype(dtype)

    pipe = PipelineParams(segment_size_bytes=params["segment"],
                          max_inflight_segments=params["window"],
                          schedule=params["schedule"])
    plain = run_reduce(params["size"], SUM, make_data, shape=params["shape"])
    piped = run_reduce(params["size"], SUM, make_data, pipeline=pipe,
                       shape=params["shape"])
    rtol = reassociation_tolerance(np.dtype(dtype), params["size"])
    np.testing.assert_allclose(piped, plain, rtol=rtol, atol=0.0)


@settings(max_examples=8, deadline=None)
@given(scenario, st.sampled_from(["min", "max"]))
def test_float_min_max_exact(params, opname):
    def make_data(rank):
        base = np.linspace(-2.0, 2.0, params["elements"])
        return base * ((-1.0) ** rank) * (1.0 + 0.11 * rank)

    pipe = PipelineParams(segment_size_bytes=params["segment"],
                          max_inflight_segments=params["window"],
                          schedule=params["schedule"])
    plain = run_reduce(params["size"], OPS[opname], make_data,
                       shape=params["shape"])
    piped = run_reduce(params["size"], OPS[opname], make_data, pipeline=pipe,
                       shape=params["shape"])
    assert np.array_equal(piped, plain)


# ----------------------------------------------------------------------
# Segmenter plans: exact partition, schedule shapes, disarmed behaviour
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5000),
       st.sampled_from([1, 2, 4, 8, 16]),
       st.sampled_from([64, 256, 1024, 4096]),
       st.sampled_from(["fixed", "greedy"]))
def test_plan_partitions_buffer_exactly(total, itemsize, seg_bytes, schedule):
    params = PipelineParams(segment_size_bytes=seg_bytes, schedule=schedule)
    plan = Segmenter(params).plan(  # simlint: ignore[SIM009]
        total, itemsize)
    assert plan[0].offset == 0
    covered = 0
    for prev, seg in zip(plan, plan[1:]):
        assert seg.offset == prev.offset + prev.count  # contiguous, no gap
    for seg in plan:
        assert seg.count >= 1
        assert seg.nbytes == seg.count * itemsize
        covered += seg.count
    assert covered == total  # no element lost or duplicated
    full = max(1, seg_bytes // itemsize)
    assert all(s.count <= full for s in plan)


def test_fixed_schedule_uniform_segments():
    segmenter = Segmenter(  # simlint: ignore[SIM009]
        PipelineParams(segment_size_bytes=1024))
    plan = segmenter.plan(1000, 8)
    # 128 elements per full segment; remainder in the last one.
    assert [s.count for s in plan] == [128] * 7 + [104]


def test_greedy_schedule_ramps_up():
    segmenter = Segmenter(  # simlint: ignore[SIM009]
        PipelineParams(segment_size_bytes=1024, schedule="greedy"))
    plan = segmenter.plan(1000, 8)
    counts = [s.count for s in plan]
    assert counts[0] == 32              # quarter of the full 128
    assert counts[:3] == [32, 64, 128]  # doubling ramp
    assert max(counts) == 128
    assert sum(counts) == 1000


def test_disarmed_plan_is_whole_buffer():
    plan = Segmenter(PipelineParams()).plan(  # simlint: ignore[SIM009]
        1000, 8)
    assert len(plan) == 1 and plan[0].count == 1000
    assert plan_segments(PipelineParams(), np.ones(1000)) is None
    assert plan_segments(None, np.ones(1000)) is None


def test_plan_segments_single_chunk_declines():
    # A buffer that fits in one segment: segmentation would only add
    # overhead, so the armed planner declines too.
    assert plan_segments(PipelineParams(segment_size_bytes=65536),
                         np.ones(16)) is None
