"""Unit tests for the schedule rewrite passes (repro.schedule.passes).

Passes are pure Schedule -> Schedule transforms, so every claim here is
provable on the IR alone, no simulation: the ``pipeline_segments``
rewrite of a whole-message lowering equals the directly segmented
lowering; ``reshape_tree`` re-lowers onto a new shape.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.schedule import LOWERINGS, Schedule, lower
from repro.schedule.passes import (PASSES, PassError, apply_passes, get_pass,
                                   register_pass)
from repro.schedule.ir import ScheduleError
from repro.topo.trees import make_tree_shape

BINOMIAL = make_tree_shape("binomial")
CHAIN = make_tree_shape("chain")


def _strip_meta(s: Schedule) -> Schedule:
    return dataclasses.replace(s, meta=())


# ----------------------------------------------------------------------
# pipeline_segments: the rewrite IS the segmentation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reduce.nab", "reduce.ab", "bcast.tree"])
@pytest.mark.parametrize("size", [2, 5, 8, 16])
@pytest.mark.parametrize("nseg", [2, 4])
def test_pipeline_segments_equals_direct_lowering(name, size, nseg):
    whole = lower(name, BINOMIAL, size)
    rewritten = apply_passes(whole, [("pipeline_segments",
                                      {"nseg": nseg})])
    direct = lower(name, BINOMIAL, size, nseg=nseg)
    assert _strip_meta(rewritten).steps == _strip_meta(direct).steps
    assert rewritten.nseg == nseg
    rewritten.validate()


def test_pipeline_segments_rejects_already_segmented():
    seg = lower("reduce.nab", BINOMIAL, 8, nseg=4)
    with pytest.raises(ScheduleError):
        apply_passes(seg, [("pipeline_segments", {"nseg": 2})])


def test_pipeline_segments_rejects_allreduce():
    whole = lower("allreduce.ab", BINOMIAL, 8)
    with pytest.raises(ScheduleError):
        apply_passes(whole, [("pipeline_segments", {"nseg": 2})])


# ----------------------------------------------------------------------
# reshape_tree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["reduce.nab", "reduce.ab", "bcast.tree"])
def test_reshape_tree_re_lowers(name):
    binom = lower(name, BINOMIAL, 8, nseg=4)
    chained = apply_passes(binom, [("reshape_tree", {"shape": "chain"})])
    direct = lower(name, CHAIN, 8, nseg=4)
    assert chained.steps == direct.steps
    chained.validate()


# ----------------------------------------------------------------------
# registry plumbing
# ----------------------------------------------------------------------
def test_unknown_pass_raises():
    whole = lower("reduce.nab", BINOMIAL, 4)
    with pytest.raises(PassError):
        apply_passes(whole, ["no_such_pass"])
    with pytest.raises(PassError):
        get_pass("no_such_pass")


def test_register_pass_rejects_duplicates():
    name = next(iter(PASSES))
    with pytest.raises(ScheduleError):
        @register_pass(name)
        def clone(schedule):  # pragma: no cover - never runs
            return schedule


def test_custom_pass_round_trip():
    @register_pass("test_identity")
    def identity(schedule):
        return schedule
    try:
        whole = lower("reduce.nab", BINOMIAL, 4)
        assert apply_passes(whole, ["test_identity"]) is whole
    finally:
        del PASSES["test_identity"]


def test_lowering_registry_covers_all_collectives():
    assert {"reduce.nab", "reduce.ab", "bcast.tree",
            "allreduce.reduce_bcast", "allreduce.ab",
            "allreduce.pipelined"} <= set(LOWERINGS)
