"""Reporting utilities: trace-based timelines and span extraction."""

from .chrome import chrome_trace_events, chrome_trace_json, write_chrome_trace
from .timeline import descriptor_spans, render_timeline

__all__ = [
    "render_timeline", "descriptor_spans",
    "chrome_trace_events", "chrome_trace_json", "write_chrome_trace",
]
