"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock (microseconds), the event queue and
the process driver that interprets the commands yielded by generator
processes (see :mod:`repro.sim.process`).

Determinism: for a fixed configuration and seed, event order is a pure
function of ``(time, insertion sequence)``, so every run is bit-identical.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..errors import DeadlockError, ProcessFailed, ReproError
from .events import Event, EventQueue, PRIORITY_DELIVERY, PRIORITY_WAKE
from .process import Busy, Compute, Cpu, Ledger, SimGen, SimProcess, WaitFor


class Simulator:
    """Event loop, virtual clock and process driver."""

    def __init__(self):
        self.now: float = 0.0
        self.queue = EventQueue()
        self.processes: list[SimProcess] = []
        self._live_processes = 0
        self.events_processed = 0
        self.ops_executed = 0
        self.processes_spawned = 0
        #: Invariant monitors notified on every event pop (see
        #: repro.analysis.invariants); empty in production runs so the
        #: hot loop pays a single falsy check.
        self.monitors: list = []
        #: Extra counter providers (callables returning dicts) merged into
        #: :meth:`counters` — e.g. the fabric's per-hop network counters.
        self._counter_sources: list = []

    def add_monitor(self, monitor: Any) -> None:
        """Register an invariant monitor's ``on_event`` hook."""
        self.monitors.append(monitor)

    def add_counter_source(self, source: Callable[[], dict]) -> None:
        """Register a zero-arg callable whose dict extends :meth:`counters`
        (a key another source already reports makes ``counters`` raise)."""
        self._counter_sources.append(source)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = PRIORITY_DELIVERY) -> Event:
        """Run ``fn(*args)`` after ``delay`` microseconds.

        ``priority`` picks the same-instant ordering class (see
        :mod:`repro.sim.events`): deliveries < wake-ups < timers.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.queue.push(self.now + delay, fn, args, priority)

    def at(self, time: float, fn: Callable[..., Any], *args: Any,
           priority: int = PRIORITY_DELIVERY) -> Event:
        """Run ``fn(*args)`` at absolute time ``time`` (must not be past)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self.queue.push(time, fn, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (a no-op on one that was
        already cancelled or has already fired: either way it is spent)."""
        if not event.cancelled:
            event.cancel()
            self.queue.note_cancelled()

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: SimGen, name: str = "proc",
              cpu: Optional[Cpu] = None) -> SimProcess:
        """Register a generator as a process and start it at the current time."""
        proc = SimProcess(gen, name, cpu)
        proc.resume = partial(self._step, proc, None)
        proc.wake = partial(self._wake, proc)
        proc.poll_wake = partial(self._poll_woken, proc, cpu)
        self.processes.append(proc)
        self._live_processes += 1
        self.processes_spawned += 1
        self.schedule(0.0, self._step, proc, None)
        return proc

    def run(self, until: Optional[float] = None, *,
            max_events: Optional[int] = None,
            error_on_deadlock: bool = True) -> float:
        """Drain the event queue (optionally bounded); returns final time.

        One loop for every caller: the bounds and the monitors are
        folded into locals once, so the unbounded, unmonitored production
        run pays one test of a local for each per event.  A monitor
        added while a run is in flight takes effect at the next ``run``.
        """
        queue = self.queue
        pop = queue.pop
        monitors = self.monitors
        hooked = bool(monitors)
        # -1 never equals the non-negative count: no event limit.
        limit = -1 if max_events is None else max(0, max_events)
        processed = 0
        try:
            while processed != limit:
                if until is not None:
                    next_time = queue.peek_time()
                    if next_time is None:
                        # Queue drained before the bound: the clock still
                        # advances to `until`, exactly as it does when an
                        # event beyond the bound remains queued.
                        if until > self.now:
                            self.now = until
                        break
                    if next_time > until:
                        # Leave the event queued so the run can be resumed.
                        self.now = until
                        break
                ev = pop()
                if ev is None:
                    break
                if hooked:
                    for monitor in monitors:
                        monitor.on_event(ev.time, self.now)
                self.now = ev.time
                # Counted before it fires: an event whose callback raises
                # was still popped and executed.
                processed += 1
                ev.fn(*ev.args)
        finally:
            self.events_processed += processed
        if error_on_deadlock and until is None and max_events is None:
            # Processes whose CPU fail-stopped (repro.faults rank_crash)
            # are dead by design, not deadlocked.
            blocked = [p.name for p in self.processes
                       if not p.done
                       and not (p.cpu is not None and p.cpu.crashed)]
            if blocked:
                raise DeadlockError(blocked)
        return self.now

    def run_process(self, gen: SimGen, name: str = "main",
                    cpu: Optional[Cpu] = None) -> Any:
        """Convenience: spawn ``gen``, run to completion, return its value."""
        proc = self.spawn(gen, name, cpu)
        self.run()
        return proc.result

    @property
    def live_process_count(self) -> int:
        return self._live_processes

    def counters(self) -> dict:
        """Per-run work counters (events popped, process-driver ops,
        processes spawned) — the denominator side of the orchestrator's
        wall-time metrics (events/second across a sweep)."""
        out = {
            "events": self.events_processed,
            # Heap entries cancelled before firing (defunct recovery
            # timers, rescheduled CPU wake-ups): invisible in `events`
            # because lazy cancellation skips them on pop, yet they are
            # real heap load worth benchmarking.
            "events_cancelled": self.queue.cancelled,
            "ops": self.ops_executed,
            "processes": self.processes_spawned,
        }
        owners = dict.fromkeys(out, "Simulator.counters")
        for source in self._counter_sources:
            owner = getattr(source, "__qualname__", repr(source))
            for key, value in source().items():
                if key in owners:
                    raise ReproError(
                        "counter %r is reported by both %s and %s"
                        % (key, owners[key], owner))
                owners[key] = owner
                out[key] = value
        return out

    # ------------------------------------------------------------------
    # the process driver
    # ------------------------------------------------------------------
    def _step(self, proc: SimProcess, value: Any = None) -> None:
        if proc.done:
            return
        cpu = proc.cpu
        if cpu is not None and cpu.crashed:
            return  # fail-stopped rank: the process never advances again
        self.ops_executed += 1
        try:
            cmd = proc.gen.send(value)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            proc.finished_at = self.now
            self._live_processes -= 1
            proc.completion.fire(stop.value)
            return
        except ProcessFailed:
            raise
        except BaseException as exc:
            proc.done = True
            proc.error = exc
            self._live_processes -= 1
            raise ProcessFailed(proc.name, exc) from exc

        kind = type(cmd)
        if kind is Ledger or kind is Busy:
            if cpu is None:
                self.schedule(cmd.total, self._step, proc, None)
            else:
                cpu.begin_busy(cmd, proc)
        elif kind is Compute:
            if cpu is None:
                self.schedule(cmd.duration, self._step, proc, None)
            else:
                cpu.begin_compute(cmd, proc)
        elif kind is WaitFor:
            if cmd.poll_category is not None and cpu is not None:
                cpu.begin_poll(cmd.poll_category)
                cmd.trigger.add_waiter(proc.poll_wake)
            else:
                cmd.trigger.add_waiter(proc.wake)
        else:
            raise TypeError(f"process {proc.name!r} yielded {cmd!r}, "
                            "expected a sim command")

    def _wake(self, proc: SimProcess, value: Any) -> None:
        """A passive ``WaitFor`` fired: resume the process this instant."""
        self.queue.push(self.now, self._step, (proc, value))

    def _poll_woken(self, proc: SimProcess, cpu: Cpu, value: Any) -> None:
        """A polled ``WaitFor`` fired: the spinning CPU notices it."""
        if cpu.crashed:
            return
        # Signals ignored while spinning still stole the CPU: the poller
        # notices the wake-up late by that much.  A frozen CPU
        # (rank_pause) additionally cannot notice it until it thaws.
        penalty = cpu.consume_interrupt_penalty() + cpu.thaw_delay()
        # WAKE class: a poller resuming at time t observes every hardware
        # delivery of time t (e.g. an rx completion landing at the exact
        # wake instant).
        self.queue.push(self.now + penalty, self._poll_resume,
                        (proc, cpu, value), PRIORITY_WAKE)

    def _poll_resume(self, proc: SimProcess, cpu: Cpu, value: Any) -> None:
        cpu.end_poll()
        self._step(proc, value)
