"""Unit + regression tests for the determinism race detector
(:mod:`repro.analysis.races`).

The centrepiece is the planted order-dependent fold: two same-time events
fold into shared state non-commutatively (``acc = acc * 3`` vs
``acc += 1``).  The schedule-perturbation harness must catch it (FIFO vs
shuffled schedules disagree on the result).  The static half — SIM010/
SIM011 flagging unordered iteration and scheduling in source — lives in
``test_simlint_rules.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.races import (diff_captures, perturbation_seeds,
                                  scenario_points)
from repro.sim.events import (PRIORITY_TIMER, PRIORITY_WAKE,
                              set_default_tiebreak_seed)
from repro.sim.simulator import Simulator


# ----------------------------------------------------------------------
# perturbation seeds
# ----------------------------------------------------------------------
def test_perturbation_seeds_deterministic_and_distinct():
    a = perturbation_seeds(1, 8)
    b = perturbation_seeds(1, 8)
    assert a == b
    assert len(set(a)) == 8
    assert perturbation_seeds(2, 8) != a


def test_perturbation_seeds_prefix_stable():
    # Raising --runs extends the schedule list without changing the
    # earlier schedules, so reports stay comparable across runs counts.
    assert perturbation_seeds(1, 12)[:8] == perturbation_seeds(1, 8)


# ----------------------------------------------------------------------
# capture diffing
# ----------------------------------------------------------------------
def test_diff_captures_equal_is_empty():
    cap = {"metrics": {"x": 1.5, "nested": [1, 2, {"y": "z"}]}}
    assert diff_captures(cap, cap) == []


def test_diff_captures_reports_path_and_values():
    base = {"metrics": {"util": 1.0, "lat": 2.0}}
    other = {"metrics": {"util": 1.0, "lat": 2.5}}
    diffs = diff_captures(base, other)
    assert len(diffs) == 1
    assert diffs[0]["path"] == "metrics.lat"
    assert diffs[0]["baseline"] == 2.0 and diffs[0]["perturbed"] == 2.5


def test_diff_captures_catches_ulp_differences():
    base = {"m": 118.43967901845316}
    other = {"m": 118.43967901845313}
    assert diff_captures(base, other)


def test_diff_captures_nan_equals_nan():
    assert diff_captures({"m": math.nan}, {"m": math.nan}) == []


def test_diff_captures_missing_key_and_length():
    diffs = diff_captures({"a": 1, "b": [1, 2]}, {"a": 1, "b": [1]})
    assert any("b" in d["path"] for d in diffs)
    diffs = diff_captures({"a": 1}, {"a": 1, "extra": 2})
    assert diffs


def test_scenario_points_registry():
    from repro.orchestrate.points import GRIDS
    for name, grid in GRIDS.items():
        points = scenario_points(name, seed=3)
        assert points, name
        assert [p.key() for p in points] == [
            p.key() for p in grid.points(seed=3)]
    two = scenario_points("fig7", iterations=2)
    assert {p.iterations for p in two} == {2}
    with pytest.raises(ValueError, match="unknown scenario") as exc:
        scenario_points("nope")
    message = str(exc.value)
    assert "\n" not in message
    assert all(name in message for name in GRIDS)


# ----------------------------------------------------------------------
# the planted order-dependent fold
# ----------------------------------------------------------------------
class SharedAcc:
    """The planted bug: a non-commutative fold touched by two events."""

    def __init__(self):
        self.value = 1.0

    def scale(self):
        self.value *= 3.0

    def bump(self):
        self.value += 1.0


def run_planted(tiebreak_seed):
    set_default_tiebreak_seed(tiebreak_seed)
    try:
        sim = Simulator()
        acc = SharedAcc()
        sim.schedule(1.0, acc.scale)
        sim.schedule(1.0, acc.bump)
        sim.run()
    finally:
        set_default_tiebreak_seed(None)
    return acc.value


def test_planted_fold_caught_by_perturbation_harness():
    """FIFO gives (1*3)+1 = 4; a schedule that flips the tie gives
    (1+1)*3 = 6.  At least one perturbed schedule must diverge — that is
    exactly the signal the harness turns into a SCHEDULE RACE report."""
    baseline = run_planted(None)
    assert baseline == 4.0
    perturbed = [run_planted(seed) for seed in perturbation_seeds(1, 8)]
    assert any(value != baseline for value in perturbed)
    assert set(perturbed) <= {4.0, 6.0}
    diffs = [diff_captures({"acc": baseline}, {"acc": value})
             for value in perturbed]
    assert any(d for d in diffs)


def test_priority_classes_fire_in_order_regardless_of_shuffle():
    for seed in [None] + perturbation_seeds(3, 4):
        set_default_tiebreak_seed(seed)
        try:
            sim = Simulator()
            order = []
            sim.schedule(1.0, order.append, "timer", priority=PRIORITY_TIMER)
            sim.schedule(1.0, order.append, "wake", priority=PRIORITY_WAKE)
            sim.schedule(1.0, order.append, "delivery")
            sim.run()
        finally:
            set_default_tiebreak_seed(None)
        assert order == ["delivery", "wake", "timer"]


# ----------------------------------------------------------------------
# SweepPoint plumbing
# ----------------------------------------------------------------------
def test_sweep_point_tiebreak_seed_round_trip():
    from repro.orchestrate.points import GRIDS, SweepPoint
    import dataclasses
    base = GRIDS["fig7"].points(iterations=2)[0]
    assert "tiebreak" not in base.key()
    assert "tiebreak_seed" not in base.to_dict()
    shuffled = dataclasses.replace(base, tiebreak_seed=42)
    assert shuffled.key()["tiebreak"] == 42
    rebuilt = SweepPoint.from_dict(shuffled.to_dict())
    assert rebuilt.tiebreak_seed == 42
    assert rebuilt.key() == shuffled.key()
