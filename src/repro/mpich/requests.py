"""Request objects for non-blocking operations.

A :class:`Request` completes exactly once, records a :class:`Status`, and
fires a trigger so that blocking waits (which spin the progress engine) can
also be woken by completion that happens *inside* a signal handler.  Most
requests (every eager send, every receive matched before its ``wait``)
complete with nobody waiting, so the trigger is built on first use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..sim.process import Trigger


@dataclass(slots=True)
class Status:
    """Completion information (the useful subset of ``MPI_Status``); one
    per message, so a plain slotted record rather than a frozen one."""

    source: int
    tag: int
    count_bytes: int


_req_seq = itertools.count(1)


class Request:
    """Handle for an in-flight send or receive."""

    __slots__ = ("kind", "done", "status", "_completion", "seq", "cancelled")

    def __init__(self, kind: str):
        if kind not in ("send", "recv"):
            raise ValueError(f"bad request kind: {kind}")
        self.kind = kind
        self.done = False
        self.status: Optional[Status] = None
        self._completion: Optional[Trigger] = None
        self.seq = next(_req_seq)
        self.cancelled = False

    def complete(self, status: Status) -> None:
        if self.done:
            raise RuntimeError(f"request #{self.seq} completed twice")
        self.done = True
        self.status = status
        if self._completion is not None:
            self._completion.fire(status)

    @property
    def completion(self) -> Trigger:
        """Fired with the status on completion (already fired when asked
        for after the fact)."""
        trigger = self._completion
        if trigger is None:
            trigger = self._completion = Trigger()
            if self.done:
                trigger.fire(self.status)
        return trigger

    def cancel(self) -> None:
        """Mark cancelled (caller must also remove any posted entry)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"<Request #{self.seq} {self.kind} {state}>"
