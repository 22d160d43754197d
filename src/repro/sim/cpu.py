"""Preemptive host-CPU model with per-category time accounting.

Each simulated node owns one :class:`HostCpu` (the paper uses a single
processor per node, which is also what lets it ignore the SMP differences
between its two machine classes).  The CPU can be in one of four states:

``IDLE``
    No work; the node's process is blocked in a passive wait or finished.
``BUSY``
    Non-interruptible MPI-internal work (copies, matching, descriptor
    management).  NIC signals arriving now are *deferred* until the segment
    ends.
``COMPUTE``
    Interruptible application compute (the paper's busy-loop skew/catch-up
    delays).  NIC signals *preempt*: the asynchronous handler runs on the
    CPU and the busy loop resumes afterwards, extending its wall-clock span
    by exactly the handler cost.  This mirrors the paper's methodology:
    *"All delays are generated using busy loops as opposed to absolute
    timings so that the CPU utilization associated with asynchronous
    processing may be captured."*
``POLL``
    Spinning inside a blocking MPI call (the progress engine is running).
    The entire blocked interval is charged to the CPU — this is the
    non-application-bypass cost the paper attacks.  Signals arriving now run
    immediately but the application-bypass layer ignores them because
    progress is already underway (paper Fig. 4).

Accounting is a ``category -> microseconds`` mapping.  Categories used by the
upper layers include ``"send"``, ``"copy"``, ``"match"``, ``"op"``,
``"poll"``, ``"signal"``, ``"async"``, ``"descriptor"`` and ``"app"``.
Benchmarks cross-check this direct accounting against the paper's
subtract-the-known-delays protocol.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from ..errors import LedgerChargedError
from .events import PRIORITY_WAKE
from .process import Compute, Ledger, SimProcess

IDLE = "idle"
BUSY = "busy"
COMPUTE = "compute"
POLL = "poll"


class HostCpu:
    """One node's processor; see module docstring for the state machine."""

    __slots__ = (
        "sim", "name", "usage", "state",
        "_wake_event", "_wake_time", "_process", "_segment", "_billed",
        "_poll_start", "_poll_category", "_pending_handlers",
        "preemptions", "deferred_handlers", "handler_runs",
        "_interrupt_penalty",
        "crashed", "_frozen_until", "_poll_frozen_us",
    )

    def __init__(self, sim: Any, name: str = "cpu"):
        self.sim = sim
        self.name = name
        self.usage: dict[str, float] = {}
        self.state = IDLE
        self._wake_event = None
        self._wake_time = 0.0
        #: the process whose segment is running, resumed when it ends
        self._process: Optional[SimProcess] = None
        #: the running segment: a yielded ledger (BUSY) or a Compute
        self._segment: Optional[Union[Ledger, Compute]] = None
        #: the BUSY segment's ``total`` when it began (see _busy_done)
        self._billed = 0.0
        self._poll_start = 0.0
        self._poll_category = ""
        self._pending_handlers: list[Callable[[Ledger], None]] = []
        self.preemptions = 0
        self.deferred_handlers = 0
        self.handler_runs = 0
        # Wall-time owed to kernel signal deliveries that the MPI layer
        # chose to ignore (progress already underway): the interrupt still
        # stole the CPU, so the interrupted poll/work segment finishes late.
        self._interrupt_penalty = 0.0
        # Fault injection (repro.faults): fail-stop flag, the wall-clock
        # end of an active rank_pause freeze, and how much of the current
        # poll interval was spent frozen (not billable as spinning).
        self.crashed = False
        self._frozen_until = 0.0
        self._poll_frozen_us = 0.0

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def charge(self, duration: float, category: str) -> None:
        """Record ``duration`` us of CPU time under ``category``."""
        if duration < 0:
            raise ValueError(f"negative charge: {duration}")
        self.usage[category] = self.usage.get(category, 0.0) + duration

    def charge_ledger(self, ledger: Ledger) -> None:
        for category, duration in ledger.charges.items():
            self.charge(duration, category)

    def total_usage(self, *, exclude: tuple[str, ...] = ()) -> float:
        """Total accounted CPU time, optionally excluding some categories.

        Summed in sorted-category order: ``usage`` is insertion-ordered by
        *event* order, and float addition does not commute at the ULP, so
        an iteration-order sum would leak the schedule into the metric
        (caught by the perturbation harness on the topo sweep).
        """
        return sum(self.usage[k] for k in sorted(self.usage)
                   if k not in exclude)

    # ------------------------------------------------------------------
    # process-driver entry points (called by the Simulator)
    # ------------------------------------------------------------------
    def begin_busy(self, ledger: Ledger, proc: SimProcess) -> None:
        """Start a non-interruptible work segment of ``ledger.total`` us,
        billed as the ledger's ``charges`` when it ends."""
        if self.state is not IDLE:
            self._assert_free("begin_busy")
        self.state = BUSY
        self._segment = ledger
        self._billed = duration = ledger.total
        self._process = proc
        sim = self.sim
        # A frozen CPU (rank_pause) cannot start work until it thaws.
        start = sim.now
        if self._frozen_until > start:
            start = self._frozen_until
        self._wake_time = wake = start + duration
        # WAKE class: a segment ending at time t observes every hardware
        # delivery of time t (determinism contract, DESIGN.md §12).
        self._wake_event = sim.queue.push(wake, self._busy_done, (),
                                          PRIORITY_WAKE)

    def begin_compute(self, cmd: Compute, proc: SimProcess) -> None:
        """Start an interruptible application-compute segment."""
        if self.state is not IDLE:
            self._assert_free("begin_compute")
        self.state = COMPUTE
        self._segment = cmd
        self._process = proc
        sim = self.sim
        start = sim.now
        if self._frozen_until > start:
            start = self._frozen_until
        self._wake_time = wake = start + cmd.duration
        self._wake_event = sim.queue.push(wake, self._compute_done, (),
                                          PRIORITY_WAKE)

    def begin_poll(self, category: str) -> None:
        """Enter the spinning-in-a-blocking-MPI-call state."""
        self._assert_free("begin_poll")
        self.state = POLL
        self._poll_start = self.sim.now
        self._poll_category = category
        # Any still-active freeze overlaps the front of this poll interval.
        self._poll_frozen_us = max(0.0, self._frozen_until - self.sim.now)

    def end_poll(self) -> None:
        """Leave the polling state, charging the spun interval.

        Time spent frozen by a ``rank_pause`` fault is wall-clock waiting,
        not CPU spinning, and is excluded from the charge.
        """
        if self.state != POLL:
            raise RuntimeError(f"end_poll in state {self.state}")
        spun = self.sim.now - self._poll_start - self._poll_frozen_us
        self.charge(max(0.0, spun), self._poll_category)
        self._poll_frozen_us = 0.0
        self.state = IDLE

    # ------------------------------------------------------------------
    # ignored-signal penalties
    # ------------------------------------------------------------------
    def add_interrupt_penalty(self, duration: float) -> None:
        """Record kernel time stolen by a signal the MPI layer ignored.

        The cost is applied as a delay when the current poll wait or busy
        segment completes (the paper's "increase in latency ... due to
        overhead from signals associated with late messages", Sec. VI-B).
        """
        if duration < 0:
            raise ValueError(f"negative penalty: {duration}")
        self._interrupt_penalty += duration

    def consume_interrupt_penalty(self) -> float:
        penalty = self._interrupt_penalty
        self._interrupt_penalty = 0.0
        return penalty

    # ------------------------------------------------------------------
    # fault-injection entry points (repro.faults)
    # ------------------------------------------------------------------
    def freeze(self, duration: float) -> None:
        """Stop this CPU for ``duration`` us (rank_pause straggler fault).

        An active BUSY/COMPUTE segment finishes ``duration`` later; an
        idle or polling CPU defers handlers and new segments until the
        thaw.  Frozen poll time is excluded from the poll charge — the
        rank was descheduled, not spinning.
        """
        if duration <= 0.0:
            return
        self._frozen_until = max(self._frozen_until, self.sim.now + duration)
        if self.state in (BUSY, COMPUTE):
            done = (self._busy_done if self.state == BUSY
                    else self._compute_done)
            self.sim.cancel(self._wake_event)
            self._wake_time += duration
            self._wake_event = self.sim.at(self._wake_time, done,
                                           priority=PRIORITY_WAKE)
        elif self.state == POLL:
            self._poll_frozen_us += duration

    def crash(self) -> None:
        """Fail-stop this CPU: the process never runs again, pending work
        and deferred handlers are discarded (rank_crash fault)."""
        self.crashed = True
        if self._wake_event is not None:
            self.sim.cancel(self._wake_event)
            self._wake_event = None
        self._segment = None
        self._process = None
        self._pending_handlers.clear()

    def thaw_delay(self) -> float:
        """Remaining freeze time; delays poll wake-ups (see Simulator)."""
        return max(0.0, self._frozen_until - self.sim.now)

    # ------------------------------------------------------------------
    # signal delivery
    # ------------------------------------------------------------------
    def run_handler(self, handler: Callable[[Ledger], None]) -> None:
        """Deliver a NIC signal handler to this CPU.

        The handler's *logic* always executes at the current instant (events
        are atomic); its accumulated CPU cost is charged and, when it
        preempted a ``COMPUTE`` segment, pushes that segment's completion out
        by the same amount.
        """
        if self.crashed:
            return
        if self._frozen_until > self.sim.now and self.state != BUSY:
            # Frozen CPU: the kernel holds the signal until the thaw (a
            # BUSY segment already defers below and its end was pushed out).
            self.sim.at(self._frozen_until, self.run_handler, handler,
                        priority=PRIORITY_WAKE)
            return
        if self.state == BUSY:
            # Non-interruptible work: defer until the segment completes.
            self._pending_handlers.append(handler)
            self.deferred_handlers += 1
            return
        if self.state == COMPUTE:
            self.preemptions += 1
            cost = self._execute(handler)
            if cost > 0.0:
                self.sim.cancel(self._wake_event)
                self._wake_time += cost
                self._wake_event = self.sim.at(self._wake_time,
                                               self._compute_done,
                                               priority=PRIORITY_WAKE)
            return
        # IDLE or POLL: run immediately.  In POLL the application-bypass
        # layer sees progress-already-active and ignores the signal, so no
        # double-booking of the CPU occurs in practice.
        self._execute(handler)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _execute(self, handler: Callable[[Ledger], None]) -> float:
        ledger = Ledger()
        handler(ledger)
        self.charge_ledger(ledger)
        self.handler_runs += 1
        return ledger.total

    def _busy_done(self) -> None:
        ledger = self._segment
        proc = self._process
        if ledger.total != self._billed:
            raise LedgerChargedError(
                f"process {proc.name!r} charged "
                f"{ledger.total - self._billed!r} us to a ledger during its "
                "own Busy segment (a yielded ledger is spent: charge a new "
                "one)")
        # Billed in place (no per-category call): every amount was already
        # checked non-negative by ``Busy`` / ``Ledger.charge``.
        usage = self.usage
        for cat, dur in ledger.charges.items():
            usage[cat] = usage.get(cat, 0.0) + dur
        # Handlers deferred during the segment run now, back to back; the
        # process resumes only after they complete.
        extra = 0.0
        pending = self._pending_handlers
        while pending:
            extra += self._execute(pending.pop(0))
        penalty = self.consume_interrupt_penalty()
        if penalty > 0.0:
            # Ignored signals during (or right after) the segment: the
            # stolen kernel time delays the process and is billed as signal
            # overhead so the direct-accounting cross-check stays exact.
            self.charge(penalty, "signal")
            extra += penalty
        self.state = IDLE
        self._segment = None
        self._wake_event = None
        self._process = None
        if extra > 0.0:
            self.sim.schedule(extra, proc.resume, priority=PRIORITY_WAKE)
        else:
            proc.resume()

    def _compute_done(self) -> None:
        cmd = self._segment
        self.charge(cmd.duration, cmd.category)
        self.state = IDLE
        self._segment = None
        self._wake_event = None
        proc = self._process
        self._process = None
        proc.resume()

    def _assert_free(self, op: str) -> None:
        if self.state is not IDLE:
            raise RuntimeError(
                f"{op} on {self.name} while in state {self.state}: "
                "each node runs exactly one MPI process"
            )
