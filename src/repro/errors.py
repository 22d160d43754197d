"""Exception hierarchy for the ``repro`` package.

Every error raised by the simulator, the GM/network substrate, the MPICH-like
layer or the application-bypass core derives from :class:`ReproError` so that
callers can catch the whole family with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Generic error in the discrete-event simulation core."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still blocked.

    This is the simulation analogue of an MPI program hanging: some rank is
    waiting for a message or trigger that can never fire.
    """

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        msg = "deadlock: %d process(es) blocked forever: %s" % (
            len(blocked),
            ", ".join(blocked[:8]) + ("..." if len(blocked) > 8 else ""),
        )
        super().__init__(msg)


class ProcessFailed(SimulationError):
    """A simulated process raised an exception; wraps the original error."""

    def __init__(self, name: str, original: BaseException):
        self.process_name = name
        self.original = original
        super().__init__(f"process {name!r} failed: {original!r}")


class LedgerChargedError(SimulationError):
    """A ledger was charged while the Busy segment it was yielded as ran:
    the segment's length was fixed when it began, so the charge would be
    billed without ever being spent."""


class ConfigError(ReproError):
    """Invalid or inconsistent configuration parameters."""


class MpiError(ReproError):
    """Error in the MPICH-like message passing layer."""


class MatchError(MpiError):
    """Message matching invariant violated (e.g. malformed envelope)."""


class TruncationError(MpiError):
    """A received message was longer than the posted receive buffer."""


class GmError(ReproError):
    """Error in the GM / NIC substrate."""


class PinError(GmError):
    """Invalid pinned-memory (DMA registration) operation."""


class AbProtocolError(ReproError):
    """Application-bypass reduction protocol invariant violated."""


class InvariantViolation(ReproError):
    """A runtime protocol invariant tracked by
    :class:`repro.analysis.invariants.InvariantMonitor` was violated while
    the monitor ran in ``assert`` mode.

    Carries the monitor's structured report so the failure shows *which*
    paper invariant broke, on which node, at what virtual time.
    """

    def __init__(self, message: str, report: dict | None = None):
        self.report = report or {}
        super().__init__(message)
