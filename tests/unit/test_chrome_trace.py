"""Tests for the Chrome-tracing export."""

import dataclasses
import json

import numpy as np
import pytest

from repro import SUM, Communicator, MpiBuild, quiet_cluster, run_program
from repro.config import PipelineParams
from repro.core.split_phase import SplitPhaseReduce
from repro.report import (chrome_trace_events, chrome_trace_json,
                          write_chrome_trace)
from repro.sim.trace import Tracer


@pytest.fixture
def traced(tmp_path):
    tracer = Tracer(enabled=True)

    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(200.0)
        yield from mpi.reduce(np.ones(2), root=0)
        yield from mpi.compute(400.0)
        yield from mpi.barrier()

    out = run_program(quiet_cluster(4), program, build=MpiBuild.AB,
                      tracer=tracer)
    return tracer, out, tmp_path


def test_events_cover_descriptor_spans(traced):
    tracer, out, _ = traced
    events = chrome_trace_events(tracer)
    bars = [e for e in events if e["ph"] == "X"]
    assert len(bars) == 1              # rank 2 is the only internal node
    bar = bars[0]
    assert bar["tid"] == 2
    assert bar["dur"] > 100.0          # waited for the 200us-late rank 3
    assert "async" in bar["name"]


def test_one_bar_per_descriptor_across_communicators():
    """Each rank reduces on ``comm_world`` and then on a duplicate: both
    are instance 0 of their own context, so internal ranks hold two
    descriptors with the same (node, instance).  Each keeps its own bar
    spanning its own record."""
    size = 8
    dup = Communicator(tuple(range(size)), "dup")
    tracer = Tracer(enabled=True)

    def program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(300.0)
        yield from mpi.reduce(np.ones(4), root=0)
        yield from mpi.reduce(np.ones(4), root=0, comm=dup)
        yield from mpi.compute(600.0)
        yield from mpi.barrier()

    out = run_program(quiet_cluster(size), program, build=MpiBuild.AB,
                      tracer=tracer)
    spans = tracer.of_kind("ab.descriptor")
    bars = [e for e in chrome_trace_events(tracer) if e["ph"] == "X"]
    assert len(spans) == len(bars) == 6
    world = out.contexts[0].comm_world
    assert sorted((r["context"], r["node"]) for r in spans) == sorted(
        (comm.coll_context, node) for comm in (world, dup)
        for node in (2, 4, 6))
    for rec, bar in zip(spans, bars):
        assert (bar["tid"], bar["ts"]) == (rec["node"], rec["start"])
        assert bar["dur"] == rec["t"] - rec["start"]


def test_split_phase_root_gets_a_bar():
    tracer = Tracer(enabled=True)

    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        if mpi.rank == 1:
            yield from mpi.compute(200.0)
        handle = yield from split.start(np.ones(4), SUM, 0, mpi.comm_world)
        yield from mpi.compute(300.0)
        yield from split.wait(handle)
        yield from mpi.barrier()

    run_program(quiet_cluster(4), program, build=MpiBuild.AB, tracer=tracer)
    bars = [e for e in chrome_trace_events(tracer) if e["ph"] == "X"]
    root = [b for b in bars if b["tid"] == 0]
    assert len(root) == 1
    assert root[0]["name"] == "reduce#0 (async)"
    assert root[0]["dur"] > 150.0      # waited for the 200us-late rank 1


def test_segment_bars_one_per_segment_descriptor():
    tracer = Tracer(enabled=True)
    config = dataclasses.replace(quiet_cluster(8), pipeline=PipelineParams(
        segment_size_bytes=2048, max_inflight_segments=3))

    def program(mpi):
        if mpi.rank == 5:
            yield from mpi.compute(120.0)
        yield from mpi.reduce(np.ones(1024), root=0)
        yield from mpi.barrier()

    run_program(config, program, build=MpiBuild.AB, tracer=tracer)
    spans = tracer.of_kind("ab.descriptor")
    bars = [e for e in chrome_trace_events(tracer) if e["ph"] == "X"]
    assert len(spans) == len(bars) == 3 * 4    # ranks 2, 4, 6; 4 segments
    for rec, bar in zip(spans, bars):
        assert bar["cat"] == "segment"
        assert bar["name"] == (f"seg#{rec['instance']}.{rec['seg']}"
                               f"/{rec['nseg']} ({rec['mode']})")
    assert sorted((b["tid"], b["name"].split()[0]) for b in bars) == [
        (node, f"seg#0.{seg}/4") for node in (2, 4, 6) for seg in range(4)]


def test_instant_events_have_tracks_and_args(traced):
    tracer, _, _ = traced
    events = chrome_trace_events(tracer)
    sends = [e for e in events if e["name"] == "send"]
    assert sends
    for e in sends:
        assert e["ph"] == "i"
        assert isinstance(e["tid"], int)
        assert "dst" in e["args"]


def test_signal_events_present(traced):
    tracer, out, _ = traced
    events = chrome_trace_events(tracer)
    signals = [e for e in events if e["name"] == "SIGNAL"]
    assert len(signals) == out.cluster.total_signals()


def test_json_serialization_valid(traced):
    tracer, _, _ = traced
    doc = json.loads(chrome_trace_json(tracer, label="unit"))
    assert doc["otherData"]["label"] == "unit"
    assert doc["traceEvents"]
    for event in doc["traceEvents"]:
        assert {"name", "ph", "ts", "pid", "tid"} <= set(event)


def test_write_chrome_trace_roundtrip(traced):
    tracer, _, tmp_path = traced
    path = tmp_path / "trace.json"
    count = write_chrome_trace(tracer, str(path))
    assert count > 0
    loaded = json.loads(path.read_text())
    assert len(loaded["traceEvents"]) == count


def test_empty_tracer_produces_empty_trace():
    assert chrome_trace_events(Tracer(enabled=True)) == []
