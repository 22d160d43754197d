"""Chrome-tracing (about://tracing / Perfetto) export of simulation traces.

Converts :class:`~repro.sim.trace.Tracer` records into the Trace Event
Format so runs can be inspected in any Chromium browser or Perfetto, one
track per node:

* instant events for packet sends/receives, retransmits and signals;
* one complete ("X") event per ``ab.descriptor`` record, the descriptor's
  span from creation to completion, which renders as a bar — the Fig. 2
  gray spans.  A segment descriptor (repro.pipeline) is its own bar, so
  the window's overlap is visible.

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
}


def chrome_trace_events(tracer: Tracer) -> list[dict]:
    """Build the Trace Event Format event list from collected records."""
    events: list[dict] = []
    for rec in tracer.records:
        kind = rec["kind"]
        node = rec.get("node", -1)
        ts = rec["t"]  # already microseconds, the TEF unit
        if kind == "ab.descriptor":
            seg = rec["seg"]
            ident = (f"seg#{rec['instance']}.{seg}/{rec['nseg']}"
                     if seg >= 0 else f"reduce#{rec['instance']}")
            events.append({
                "name": f"{ident} ({rec['mode']})",
                "cat": "segment" if seg >= 0 else "descriptor",
                "ph": "X",
                "ts": rec["start"],
                "dur": max(ts - rec["start"], 0.01),
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


def chrome_trace_json(tracer: Tracer, *, label: str = "repro",
                      events: list[dict] | None = None) -> str:
    """Serialize the trace (or its ``events``, when the caller already
    built them) to a Trace Event Format JSON string."""
    doc = {
        "traceEvents": events or chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {"tool": "repro", "label": label,
                      "timeUnit": "microseconds"},
    }
    return json.dumps(doc, indent=1)


def write_chrome_trace(tracer: Tracer, path: str, *,
                       label: str = "repro") -> int:
    """Write :func:`chrome_trace_json`'s text to ``path``; returns the
    number of events."""
    events = chrome_trace_events(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chrome_trace_json(tracer, label=label, events=events))
    return len(events)
