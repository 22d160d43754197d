"""Lightweight event tracing.

Disabled by default (a single ``if`` per emit).  Tests and debugging sessions
enable it to get a structured log of packet sends, signal deliveries,
descriptor transitions and so on.  Records are plain dicts so they can be
filtered with ordinary comprehensions.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Tracer:
    """Collects ``(time, kind, fields)`` records when enabled."""

    __slots__ = ("enabled", "records", "sink", "_clock")

    def __init__(self, enabled: bool = False,
                 sink: Optional[Callable[[dict], None]] = None):
        self.enabled = enabled
        self.records: list[dict[str, Any]] = []
        self.sink = sink
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulator clock (called by cluster construction)."""
        self._clock = clock

    def emit(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        record = {"t": self._clock(), "kind": kind}
        record.update(fields)
        if self.sink is not None:
            self.sink(record)
        else:
            self.records.append(record)

    def of_kind(self, kind: str) -> list[dict[str, Any]]:
        """All collected records with the given kind."""
        return [r for r in self.records if r["kind"] == kind]
