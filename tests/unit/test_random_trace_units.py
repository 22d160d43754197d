"""Unit tests for RNG streams, tracing and unit helpers."""

import numpy as np
import pytest

from repro.sim.random import RngStreams
from repro.sim.trace import Tracer
from repro import units


# ---------------------------------------------------------------------------
# RngStreams
# ---------------------------------------------------------------------------

def test_same_seed_same_stream():
    a = RngStreams(7).stream("skew/3").random(5)
    b = RngStreams(7).stream("skew/3").random(5)
    assert np.array_equal(a, b)


def test_different_names_independent():
    s = RngStreams(7)
    a = s.stream("a").random(5)
    b = s.stream("b").random(5)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngStreams(1).stream("x").random(5)
    b = RngStreams(2).stream("x").random(5)
    assert not np.array_equal(a, b)


def test_stream_is_cached():
    s = RngStreams(1)
    assert s.stream("x") is s.stream("x")


def test_node_stream_shorthand():
    s = RngStreams(3)
    assert s.node_stream("noise", 4) is s.stream("noise/4")


def test_seed_must_be_int():
    with pytest.raises(TypeError):
        RngStreams("seed")  # type: ignore[arg-type]


def test_consuming_one_stream_leaves_others_untouched():
    s1 = RngStreams(9)
    s1.stream("a").random(100)          # burn stream a
    after = s1.stream("b").random(5)
    fresh = RngStreams(9).stream("b").random(5)
    assert np.array_equal(after, fresh)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_disabled_by_default():
    t = Tracer()
    t.emit("x", a=1)
    assert t.records == []


def test_tracer_records_with_clock():
    t = Tracer(enabled=True)
    clock = [0.0]
    t.bind_clock(lambda: clock[0])
    t.emit("send", node=1)
    clock[0] = 5.0
    t.emit("recv", node=2)
    assert [r["t"] for r in t.records] == [0.0, 5.0]
    assert {r["kind"] for r in t.records} == {"send", "recv"}
    assert len(t.of_kind("send")) == 1


# ---------------------------------------------------------------------------
# units
# ---------------------------------------------------------------------------

def test_bandwidth_conversions():
    assert units.gbit_per_s(2.0) == pytest.approx(250.0)
