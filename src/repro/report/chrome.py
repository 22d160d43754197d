"""Chrome-tracing (about://tracing / Perfetto) export of simulation traces.

Converts :class:`~repro.sim.trace.Tracer` records into the Trace Event
Format so runs can be inspected in any Chromium browser or Perfetto:

* instant events for packet sends/receives, signals and descriptor
  transitions (one track per node);
* complete ("X") events for descriptor lifetimes (enqueue → complete),
  which render as bars — the Fig. 2 gray spans;
* complete ("X") events for segment-descriptor lifetimes
  (``ab.segment.enqueue`` → ``ab.segment.complete``, repro.pipeline),
  one bar per in-flight segment so the window's overlap is visible.

Usage::

    tracer = Tracer(enabled=True)
    out = run_program(config, program, build=MpiBuild.AB, tracer=tracer)
    write_chrome_trace(tracer, "run.json")
"""

from __future__ import annotations

import json
from ..sim.trace import Tracer

#: trace kinds rendered as instant events, with display names.
_INSTANT = {
    "nic.send": "send",
    "nic.recv": "recv",
    "nic.signal": "SIGNAL",
    "nic.retransmit": "retransmit",
    "ab.descriptor.enqueue": "descriptor+",
    "ab.segment.enqueue": "segment+",
}


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """Build the Trace Event Format event list from collected records."""
    events: list[dict] = []
    open_descriptors: dict[tuple[int, int], float] = {}
    open_segments: dict[tuple[int, int, int], float] = {}
    for rec in tracer.records:
        kind = rec["kind"]
        node = rec.get("node", -1)
        ts = rec["t"]  # already microseconds, the TEF unit
        if kind == "ab.descriptor.enqueue":
            open_descriptors[(node, rec["instance"])] = ts
        if kind == "ab.descriptor.complete":
            start = open_descriptors.pop((node, rec["instance"]), None)
            if start is not None:
                events.append({
                    "name": f"reduce#{rec['instance']} ({rec['mode']})",
                    "cat": "descriptor",
                    "ph": "X",
                    "ts": start,
                    "dur": max(ts - start, 0.01),
                    "pid": 0,
                    "tid": node,
                })
            continue
        if kind == "ab.segment.enqueue":
            open_segments[(node, rec["instance"], rec["seg"])] = ts
        if kind == "ab.segment.complete":
            start = open_segments.pop(
                (node, rec["instance"], rec["seg"]), None)
            if start is not None:
                events.append({
                    "name": (f"seg#{rec['instance']}.{rec['seg']}"
                             f"/{rec['nseg']} ({rec['mode']})"),
                    "cat": "segment",
                    "ph": "X",
                    "ts": start,
                    "dur": max(ts - start, 0.01),
                    "pid": 0,
                    "tid": node,
                })
            continue
        name = _INSTANT.get(kind)
        if name is None:
            continue
        args = {k: v for k, v in rec.items()
                if k not in ("t", "kind", "node") and
                isinstance(v, (int, float, str))}
        events.append({
            "name": name,
            "cat": kind.split(".")[0],
            "ph": "i",
            "s": "t",           # thread-scoped instant
            "ts": ts,
            "pid": 0,
            "tid": node,
            "args": args,
        })
    return events


def chrome_trace_json(tracer: Tracer, *, label: str = "repro") -> str:
    """Serialize the trace to a Trace Event Format JSON string."""
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro", "label": label,
                      "timeUnit": "microseconds"},
    }
    return json.dumps(doc, indent=1)


def write_chrome_trace(tracer: Tracer, path: str, *,
                       label: str = "repro") -> int:
    """Write :func:`chrome_trace_json`'s text to ``path``; returns the
    number of events."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(tracer, label=label))
    return len(chrome_trace_events(tracer))
