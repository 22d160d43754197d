"""ASCII timelines from trace records — the textual analogue of the
paper's Fig. 2 time-line diagrams.

Enable tracing on a cluster, run a program, then render::

    from repro.sim.trace import Tracer
    from repro.report.timeline import render_timeline

    tracer = Tracer(enabled=True)
    out = run_program(config, program, build=MpiBuild.AB, tracer=tracer)
    print(render_timeline(tracer, nodes=range(8), t_end=out.finished_at))

Each node gets one lane.  Markers:

* ``E`` / ``C`` — an AB reduce descriptor's span (one ``ab.descriptor``
  record): ``E`` at its ``start``, when the rank left ``MPI_Reduce``, and
  ``C`` at its end, when the result went to the parent
* ``e`` / ``c`` — the same for a segment descriptor (repro.pipeline)
* ``!`` — NIC signal delivered to the host
* ``s`` / ``r`` — packet send / receive at the NIC
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..sim.trace import Tracer

#: NIC instants' markers; later entries overwrite earlier ones in a cell.
_MARKERS = (
    ("nic.send", "s"),
    ("nic.recv", "r"),
    ("nic.signal", "!"),
)


def render_timeline(tracer: Tracer, *, nodes: Iterable[int],
                    t_start: float = 0.0, t_end: Optional[float] = None,
                    width: int = 100) -> str:
    """Render one lane per node over ``[t_start, t_end]``."""
    if t_end is None:
        t_end = max((r["t"] for r in tracer.records), default=1.0)
    if t_end <= t_start:
        raise ValueError("empty time window")
    span = t_end - t_start
    nodes = list(nodes)
    lanes = {n: ["-"] * width for n in nodes}
    spans = tracer.of_kind("ab.descriptor")
    segs = [r for r in spans if r["seg"] >= 0]
    whole = [r for r in spans if r["seg"] < 0]
    # (records, time field, marker), in overwrite priority: NIC instants,
    # then segment opens, segment closes, descriptor opens, closes.
    layers = [(tracer.of_kind(kind), "t", marker) for kind, marker in _MARKERS]
    layers += [(segs, "start", "e"), (segs, "t", "c"),
               (whole, "start", "E"), (whole, "t", "C")]
    for recs, field, marker in layers:
        for rec in recs:
            node = rec.get("node")
            if node not in lanes or not (t_start <= rec[field] <= t_end):
                continue
            col = min(width - 1, int((rec[field] - t_start) / span * width))
            lanes[node][col] = marker

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
    """Each whole-message descriptor's node, instance, span and mode."""
    return [{"node": rec["node"], "instance": rec["instance"],
             "span_us": rec["t"] - rec["start"], "mode": rec["mode"]}
            for rec in tracer.of_kind("ab.descriptor") if rec["seg"] < 0]
