"""Lightweight event tracing.

Disabled by default (a single ``if`` per emit).  Tests and debugging sessions
enable it to get a structured log: instants for packet sends, receives,
retransmits and signal deliveries (``nic.*``), and one ``ab.descriptor``
record per completed AB reduce descriptor — its span, stamped at the end
with ``start`` and the descriptor's ``(context, instance, seg)`` identity.
Records are plain dicts so they can be filtered with ordinary
comprehensions; :mod:`repro.report` renders them.
"""

from __future__ import annotations

from typing import Any, Callable


class Tracer:
    """Collects ``(time, kind, fields)`` records when enabled."""

    __slots__ = ("enabled", "records", "_clock")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulator clock (called by cluster construction)."""
        self._clock = clock

    def emit(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        record = {"t": self._clock(), "kind": kind}
        record.update(fields)
        self.records.append(record)

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        """All collected records with the given kind."""
        return [r for r in self.records if r["kind"] == kind]
