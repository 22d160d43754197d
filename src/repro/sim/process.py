"""Generator-coroutine processes and the commands they may yield.

A *process* is a Python generator driven by the :class:`~repro.sim.simulator.
Simulator`.  The generator yields command objects; the simulator interprets
each command, and resumes the generator (``gen.send(value)``) when the command
completes.  Sub-operations compose with ``yield from`` and return values via
``StopIteration`` in the usual way, so MPI-layer code reads almost like
straight-line blocking code::

    def program(mpi):
        yield from mpi.barrier()
        result = yield from mpi.reduce(data, op=SUM, root=0)
        return result

Commands
--------
``ledger`` (a :class:`Ledger`)
    Hold this process's host CPU for ``ledger.total`` microseconds of
    *non-interruptible* work (MPI-internal bookkeeping, memory copies...),
    billed as the ledger's per-category ``charges``.  NIC signals arriving
    during the segment are deferred until it ends.  A yielded ledger is
    the segment itself: charging it before the segment ends is an error
    (:class:`~repro.errors.LedgerChargedError`).

``Busy(duration, category)``
    The one-charge ledger: ``duration`` microseconds under ``category``.

``Compute(duration, category)``
    Application-level compute (the paper's busy loops).  *Interruptible*: a
    NIC signal suspends the loop, runs the asynchronous handler on the host
    CPU, and the loop then resumes — extending its wall-clock span by exactly
    the handler cost, which is how the paper's measurement methodology
    captures asynchronous CPU usage.

``WaitFor(trigger, poll_category=None)``
    Block until ``trigger`` fires.  If ``poll_category`` is given, the host
    CPU is charged for the entire blocked interval under that category —
    modelling MPICH's busy-polling blocking receives.  If ``None``, the wait
    is passive (CPU idle).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Protocol

SimGen = Generator["Command", Any, Any]


class Cpu(Protocol):
    """What the process driver needs of a process's CPU
    (:class:`~repro.sim.cpu.HostCpu` is the one implementation)."""

    #: Fail-stop flag: a process whose CPU crashed never advances again.
    crashed: bool

    def begin_busy(self, ledger: Ledger, proc: SimProcess) -> None: ...

    def begin_compute(self, cmd: Compute, proc: SimProcess) -> None: ...

    def begin_poll(self, category: str) -> None: ...

    def end_poll(self) -> None: ...

    def consume_interrupt_penalty(self) -> float: ...

    def thaw_delay(self) -> float: ...


class Command:
    """Base class of everything a process may ``yield``."""

    __slots__ = ()


class Ledger(Command):
    """Accumulator for CPU costs computed by *instantaneous* logic, and the
    non-interruptible segment that bills them.

    MPI-internal logic in this code base executes as plain Python at a single
    simulation instant while tallying how long it *would* have taken on the
    host; the caller then either yields the ledger itself (process context:
    a Busy segment of ``total`` us) or lets the CPU charge-and-shift
    machinery apply it (signal handler context).  ``total`` is also used to
    timestamp side effects: a packet handed to the NIC halfway through a
    handler departs at ``now + ledger.total``-at-that-point.
    """

    __slots__ = ("charges", "total")

    def __init__(self) -> None:
        self.charges: dict[str, float] = {}
        self.total = 0.0

    def charge(self, duration: float, category: str) -> float:
        """Add ``duration`` us under ``category``; returns the new total."""
        if duration < 0:
            raise ValueError(f"negative charge: {duration}")
        charges = self.charges
        charges[category] = charges.get(category, 0.0) + duration
        total = self.total = self.total + duration
        return total


class Busy(Ledger):
    """Non-interruptible CPU work of one category (see module docstring)."""

    __slots__ = ()

    def __init__(self, duration: float, category: str = "work"):
        if duration < 0:
            raise ValueError(f"negative busy duration: {duration}")
        self.charges = {category: duration}
        self.total = duration


class Compute(Command):
    """Interruptible application compute (paper's busy-loop delays)."""

    __slots__ = ("duration", "category")

    def __init__(self, duration: float, category: str = "app"):
        if duration < 0:
            raise ValueError(f"negative compute duration: {duration}")
        self.duration = duration
        self.category = category


class WaitFor(Command):
    """Block until a :class:`Trigger` fires (optionally spinning the CPU)."""

    __slots__ = ("trigger", "poll_category")

    def __init__(self, trigger: "Trigger", poll_category: Optional[str] = None):
        self.trigger = trigger
        self.poll_category = poll_category


class Trigger:
    """One-shot synchronization point.

    ``fire(value)`` wakes every process currently blocked in a
    ``WaitFor(trigger)`` and remembers the value; a ``WaitFor`` on an
    already-fired trigger completes immediately.
    """

    __slots__ = ("fired", "value", "_waiters")

    def __init__(self) -> None:
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        if self.fired:
            callback(self.value)
        else:
            self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            cb(value)


class Notifier:
    """Multi-shot notification source (e.g. "a packet arrived at this NIC").

    Each call to :meth:`wait` hands out a fresh one-shot :class:`Trigger`
    that the next :meth:`notify` fires.  Blocking loops use the pattern::

        while not done():
            yield WaitFor(notifier.wait(), poll_category="poll")
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending: list[Trigger] = []

    def wait(self) -> Trigger:
        trig = Trigger()
        self._pending.append(trig)
        return trig

    def notify(self, value: Any = None) -> int:
        """Fire all outstanding triggers; returns how many were woken."""
        pending, self._pending = self._pending, []
        for trig in pending:
            trig.fire(value)
        return len(pending)


class SimProcess:
    """Bookkeeping for one running generator."""

    __slots__ = ("gen", "name", "cpu", "done", "result", "error", "finished_at",
                 "resume", "wake", "poll_wake", "_completion")

    def __init__(self, gen: SimGen, name: str,
                 cpu: Optional[Cpu] = None):
        self.gen = gen
        self.name = name
        self.cpu = cpu  # HostCpu or None for hardware/helper processes
        #: ``resume()`` sends ``None`` into the generator: the one callable
        #: every Busy/Compute segment of this process completes into.
        #: ``wake(value)`` / ``poll_wake(value)`` are what a passive /
        #: polled ``WaitFor`` hands its trigger.  :meth:`Simulator.spawn`
        #: binds all three once instead of once per command.
        self.resume: Callable[[], None]
        self.wake: Callable[[Any], None]
        self.poll_wake: Callable[[Any], None]
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.finished_at: Optional[float] = None
        self._completion = Trigger()

    @property
    def completion(self) -> Trigger:
        """Trigger fired (with the return value) when the process finishes."""
        return self._completion

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "running"
        return f"<SimProcess {self.name!r} {state}>"
