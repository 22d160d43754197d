"""ASCII timelines from trace records — the textual analogue of the
paper's Fig. 2 time-line diagrams.

Enable tracing on a cluster, run a program, then render::

    from repro.sim.trace import Tracer
    from repro.report.timeline import render_timeline

    tracer = Tracer(enabled=True)
    out = run_program(config, program, build=MpiBuild.AB, tracer=tracer)
    print(render_timeline(tracer, nodes=range(8), t_end=out.finished_at))

Each node gets one lane.  Markers:

* ``E`` — AB reduce descriptor enqueued (the rank left ``MPI_Reduce``)
* ``C`` — descriptor completed (final result sent to the parent)
* ``e`` / ``c`` — segment descriptor enqueued / completed (repro.pipeline)
* ``!`` — NIC signal delivered to the host
* ``s`` / ``r`` — packet send / receive at the NIC
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim.trace import Tracer

#: Marker priority: later entries overwrite earlier ones in a cell.
_MARKERS = (
    ("nic.send", "s"),
    ("nic.recv", "r"),
    ("nic.signal", "!"),
    ("ab.segment.enqueue", "e"),
    ("ab.segment.complete", "c"),
    ("ab.descriptor.enqueue", "E"),
    ("ab.descriptor.complete", "C"),
)


def render_timeline(tracer: Tracer, *, nodes: Iterable[int],
                    t_start: float = 0.0, t_end: Optional[float] = None,
                    width: int = 100) -> str:
    """Render one lane per node over ``[t_start, t_end]``."""
    records = tracer.records
    if t_end is None:
        t_end = max((r["t"] for r in records), default=1.0)
    if t_end <= t_start:
        raise ValueError("empty time window")
    span = t_end - t_start
    nodes = list(nodes)
    lanes = {n: ["-"] * width for n in nodes}
    counts: dict[int, int] = {n: 0 for n in nodes}
    for kind, marker in _MARKERS:
        for rec in records:
            if rec["kind"] != kind:
                continue
            node = rec.get("node")
            if node not in lanes:
                continue
            if not (t_start <= rec["t"] <= t_end):
                continue
            col = min(width - 1, int((rec["t"] - t_start) / span * width))
            lanes[node][col] = marker
            counts[node] += 1

    header = (f"timeline {t_start:.0f}..{t_end:.0f} us   "
              f"(s=send r=recv !=signal E=descriptor C=complete "
              f"e/c=segment)")
    lines = [header]
    ruler = " " * 8 + "".join(
        "|" if i % 10 == 0 else " " for i in range(width))
    lines.append(ruler)
    for node in nodes:
        lines.append(f"rank {node:>2} {''.join(lanes[node])}")
    return "\n".join(lines)


def descriptor_spans(tracer: Tracer) -> list[dict]:
    """Extract (node, instance, enqueue-to-complete span, mode) tuples."""
    spans = []
    for rec in tracer.of_kind("ab.descriptor.complete"):
        spans.append({
            "node": rec["node"],
            "instance": rec["instance"],
            "span_us": rec["span"],
            "mode": rec["mode"],
        })
    return spans
