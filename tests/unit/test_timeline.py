"""Tests for trace emission and the ASCII timeline renderer."""

import dataclasses

import numpy as np
import pytest

from repro import SUM, MpiBuild, quiet_cluster, run_program
from repro.config import PipelineParams
from repro.core.split_phase import SplitPhaseReduce
from repro.report import descriptor_spans, render_timeline
from repro.sim.trace import Tracer


#: 1024 doubles cut into four 2 KiB segments, three in flight.
SEGMENTED = PipelineParams(segment_size_bytes=2048, max_inflight_segments=3)


def traced_run(size=8, skew_rank=3, skew_us=300.0, elements=4,
               pipeline=None):
    tracer = Tracer(enabled=True)
    config = quiet_cluster(size)
    if pipeline is not None:
        config = dataclasses.replace(config, pipeline=pipeline)

    def program(mpi):
        if mpi.rank == skew_rank:
            yield from mpi.compute(skew_us)
        yield from mpi.reduce(np.ones(elements), root=0)
        yield from mpi.compute(600.0)
        yield from mpi.barrier()

    out = run_program(config, program, build=MpiBuild.AB, tracer=tracer)
    return tracer, out


def test_trace_records_descriptor_lifecycle():
    tracer, out = traced_run()
    spans = tracer.of_kind("ab.descriptor")
    # 3 internal nodes (2, 4, 6) in the 8-rank tree, one record each
    assert {r["node"] for r in spans} == {2, 4, 6}
    assert len(spans) == 3
    for r in spans:
        world = out.contexts[r["node"]].comm_world
        assert (r["context"], r["instance"], r["seg"], r["nseg"]) == (
            world.coll_context, 0, -1, 1)
        assert r["start"] < r["t"]
    # rank 2 (parent of the late rank 3) completed asynchronously
    modes = {r["node"]: r["mode"] for r in spans}
    assert modes[2] == "async"


def test_descriptor_spans_reflect_skew():
    tracer, _ = traced_run(skew_us=300.0)
    spans = {s["node"]: s for s in descriptor_spans(tracer)}
    # rank 2 waited (asynchronously) for the 300us-late child
    assert spans[2]["span_us"] > 250.0
    assert spans[4]["span_us"] < 100.0


def test_signal_counts():
    tracer, out = traced_run()
    signalled = [r["node"] for r in tracer.of_kind("nic.signal")]
    assert 2 in signalled              # late child's parent took a signal
    assert len(signalled) == out.cluster.total_signals()


def test_render_timeline_layout():
    tracer, out = traced_run()
    text = render_timeline(tracer, nodes=range(8), t_end=out.finished_at,
                           width=80)
    lines = text.splitlines()
    assert lines[0].startswith("timeline")
    assert len(lines) == 2 + 8         # header + ruler + 8 lanes
    lane2 = next(l for l in lines if l.startswith("rank  2"))
    assert "E" in lane2 or "C" in lane2
    # every lane is exactly the requested width
    for line in lines[2:]:
        assert len(line) == len("rank  0 ") + 80


def test_render_timeline_window_validation():
    tracer, _ = traced_run()
    with pytest.raises(ValueError):
        render_timeline(tracer, nodes=[0], t_start=10.0, t_end=5.0)


def test_tracing_off_by_default_costs_nothing():
    _, out = traced_run()
    out2 = run_program(quiet_cluster(4),
                       lambda mpi: (yield from mpi.barrier()),
                       build=MpiBuild.AB)
    assert out2.cluster.tracer.records == []


def lane(text, node):
    return next(l for l in text.splitlines()
                if l.startswith(f"rank {node:>2} "))[8:]


def test_split_phase_root_lane_shows_its_span():
    """A split-phase root's descriptor is created in ``start()``, not by
    the engine's window, and still leaves its span: ``E`` and ``C``."""
    tracer = Tracer(enabled=True)

    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        if mpi.rank == 1:
            yield from mpi.compute(200.0)
        handle = yield from split.start(np.ones(4), SUM, 0, mpi.comm_world)
        yield from mpi.compute(300.0)
        yield from split.wait(handle)
        yield from mpi.barrier()

    out = run_program(quiet_cluster(4), program, build=MpiBuild.AB,
                      tracer=tracer)
    text = render_timeline(tracer, nodes=range(4), t_end=out.finished_at)
    root = lane(text, 0)
    assert "E" in root and "C" in root
    assert root.index("E") < root.index("C")


def test_segment_lanes_show_segment_spans():
    tracer, out = traced_run(elements=1024, skew_rank=5, skew_us=120.0,
                             pipeline=SEGMENTED)
    text = render_timeline(tracer, nodes=range(8), t_end=out.finished_at)
    for node in (2, 4, 6):
        assert "e" in lane(text, node) and "c" in lane(text, node)
        assert "E" not in lane(text, node)
    for node in (1, 3, 5, 7):
        assert not set("eEcC") & set(lane(text, node))
