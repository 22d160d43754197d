"""Tests for trace emission and the ASCII timeline renderer."""

import numpy as np
import pytest

from repro import MpiBuild, quiet_cluster, run_program
from repro.report import descriptor_spans, render_timeline
from repro.sim.trace import Tracer


def traced_run(size=8, skew_rank=3, skew_us=300.0):
    tracer = Tracer(enabled=True)

    def program(mpi):
        if mpi.rank == skew_rank:
            yield from mpi.compute(skew_us)
        yield from mpi.reduce(np.ones(4), root=0)
        yield from mpi.compute(600.0)
        yield from mpi.barrier()

    out = run_program(quiet_cluster(size), program, build=MpiBuild.AB,
                      tracer=tracer)
    return tracer, out


def test_trace_records_descriptor_lifecycle():
    tracer, _ = traced_run()
    enq = tracer.of_kind("ab.descriptor.enqueue")
    done = tracer.of_kind("ab.descriptor.complete")
    # 3 internal nodes (2, 4, 6) in the 8-rank tree
    assert {r["node"] for r in enq} == {2, 4, 6}
    assert len(done) == len(enq) == 3
    # rank 2 (parent of the late rank 3) completed asynchronously
    modes = {r["node"]: r["mode"] for r in done}
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
