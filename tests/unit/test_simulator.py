"""Unit tests for the simulator core and process driver."""

import pytest

from repro.errors import DeadlockError, ProcessFailed, ReproError
from repro.sim.cpu import HostCpu
from repro.sim.process import Busy, Compute, Trigger, WaitFor
from repro.sim.simulator import Simulator


def test_schedule_and_run(sim):
    fired = []
    sim.schedule(5.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["b", "a"]
    assert sim.now == 5.0


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_at_rejects_past(sim):
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5.0, lambda: None)


def test_run_until(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(100.0, fired.append, 2)
    sim.run(until=50.0)
    assert fired == [1]
    assert sim.now == 50.0


def test_run_until_advances_clock_when_queue_drains_early(sim):
    """Bounded runs must land exactly on the bound even if events run out.

    Regression: ``run(until=T)`` used to leave ``now`` at the last event's
    time (or 0.0 with no events at all), so multi-phase drivers alternating
    ``run(until=...)`` with ``at(...)`` scheduling observed a stale clock.
    """
    sim.run(until=100.0)          # empty queue: clock still reaches T
    assert sim.now == 100.0

    fired = []
    sim.at(130.0, fired.append, 1)
    sim.run(until=200.0)          # queue drains at 130, clock reaches 200
    assert fired == [1]
    assert sim.now == 200.0


def test_run_until_never_moves_clock_backwards(sim):
    sim.run(until=50.0)
    assert sim.now == 50.0
    sim.run(until=20.0)           # earlier bound: clock must not regress
    assert sim.now == 50.0
    sim.run(until=50.0)           # same bound twice is a no-op
    assert sim.now == 50.0


def test_run_until_supports_at_scheduling_between_phases(sim):
    """The pattern the fix exists for: phase loop with absolute deadlines."""
    fired = []
    for phase, deadline in enumerate([10.0, 20.0, 30.0]):
        sim.at(deadline - 1.0, fired.append, phase)
        sim.run(until=deadline)
    assert fired == [0, 1, 2]
    assert sim.now == 30.0


def test_process_returns_value(sim):
    def main():
        yield Busy(3.0)
        return 42

    cpu = HostCpu(sim)
    assert sim.run_process(main(), cpu=cpu) == 42
    assert sim.now == 3.0


def test_process_without_cpu_advances_time(sim):
    def main():
        yield Busy(7.0)
        yield Compute(3.0)
        return sim.now

    assert sim.run_process(main()) == 10.0


def test_subgenerator_composition(sim):
    def inner(x):
        yield Busy(1.0)
        return x * 2

    def main():
        a = yield from inner(5)
        b = yield from inner(a)
        return b

    assert sim.run_process(main()) == 20


def test_trigger_wakes_waiter(sim):
    trig = Trigger()
    log = []

    def waiter():
        value = yield WaitFor(trig)
        log.append(value)
        return value

    def firer():
        yield Busy(4.0)
        trig.fire("hello")

    p = sim.spawn(waiter(), "waiter")
    sim.spawn(firer(), "firer")
    sim.run()
    assert p.result == "hello"
    assert log == ["hello"]
    assert sim.now == 4.0


def test_waitfor_fired_trigger_completes_immediately(sim):
    trig = Trigger()
    trig.fire(99)

    def main():
        value = yield WaitFor(trig)
        return value

    assert sim.run_process(main()) == 99


def test_process_exception_wrapped(sim):
    def bad():
        yield Busy(1.0)
        raise ValueError("boom")

    sim.spawn(bad(), "bad")
    with pytest.raises(ProcessFailed) as exc:
        sim.run()
    assert isinstance(exc.value.original, ValueError)
    assert exc.value.process_name == "bad"


def test_events_processed_survives_a_raising_callback(sim):
    """The counters a failed run leaves behind still say what fired."""
    def bad():
        yield Busy(1.0)
        raise ValueError("boom")

    sim.spawn(bad(), "bad")
    with pytest.raises(ProcessFailed):
        sim.run()
    # The spawn step and the Busy completion both fired (the second one
    # is the event whose callback raised).
    assert sim.events_processed == 2
    assert sim.counters()["events"] == 2


def test_cancel_after_fire_is_a_noop(sim):
    """A fired event is spent: cancelling it must not touch the queue."""
    fired = []
    ev = sim.schedule(1.0, fired.append, "x")
    sim.run()
    sim.cancel(ev)
    assert fired == ["x"]
    assert len(sim.queue) == 0 and not sim.queue
    assert sim.counters()["events_cancelled"] == 0
    # ...and the queue is still usable afterwards.
    sim.schedule(1.0, fired.append, "y")
    assert len(sim.queue) == 1
    sim.run()
    assert fired == ["x", "y"]


def test_cancel_from_inside_the_firing_event_is_a_noop(sim):
    holder = []

    def cancel_self():
        sim.cancel(holder[0])

    holder.append(sim.schedule(1.0, cancel_self))
    later = sim.schedule(2.0, lambda: None)
    sim.run(until=1.5)
    assert len(sim.queue) == 1          # only `later` is pending
    sim.cancel(later)
    sim.cancel(later)                   # double cancel: counted once
    assert len(sim.queue) == 0
    assert sim.counters()["events_cancelled"] == 1


def test_freeze_during_process_busy_rearms_wake_event(sim):
    """The driver's Busy fast path leaves freeze() a cancellable event."""
    cpu = HostCpu(sim, "cpu0")
    resumed = []

    def main():
        yield Busy(10.0, "copy")
        resumed.append(sim.now)

    sim.spawn(main(), "main", cpu=cpu)
    sim.schedule(3.0, cpu.freeze, 20.0)
    sim.run()
    assert resumed == [30.0]
    assert cpu.usage == {"copy": 10.0}
    assert sim.counters()["events_cancelled"] == 1   # the original wake-up
    assert len(sim.queue) == 0


def test_crash_during_process_busy_cancels_wake_event(sim):
    cpu = HostCpu(sim, "cpu0")
    resumed = []

    def main():
        yield Busy(10.0, "copy")
        resumed.append(sim.now)

    proc = sim.spawn(main(), "main", cpu=cpu)
    sim.schedule(3.0, cpu.crash)
    sim.run()                           # crashed, so not a deadlock
    assert resumed == [] and not proc.done
    assert sim.counters()["events_cancelled"] == 1
    assert len(sim.queue) == 0
    assert sim.now == 3.0               # the cancelled wake-up never fired


def test_deadlock_detection(sim):
    def stuck():
        yield WaitFor(Trigger())   # never fires

    sim.spawn(stuck(), "stuck-proc")
    with pytest.raises(DeadlockError) as exc:
        sim.run()
    assert "stuck-proc" in exc.value.blocked


def test_deadlock_detection_can_be_disabled(sim):
    def stuck():
        yield WaitFor(Trigger())

    sim.spawn(stuck(), "s")
    sim.run(error_on_deadlock=False)  # no raise


def test_invalid_yield_rejected(sim):
    def bad():
        yield "not a command"

    sim.spawn(bad(), "bad")
    with pytest.raises(TypeError):
        sim.run()


def test_completion_trigger_carries_result(sim):
    def main():
        yield Busy(1.0)
        return "done"

    collected = []
    p = sim.spawn(main(), "m")
    p.completion.add_waiter(collected.append)
    sim.run()
    assert collected == ["done"]


def test_determinism_same_seedless_schedule(sim):
    """Two identical simulations produce identical event interleavings."""

    def build(sim_):
        log = []

        def proc(tag, delay):
            yield Busy(delay)
            log.append((tag, sim_.now))
            yield Busy(delay)
            log.append((tag, sim_.now))

        for i in range(5):
            sim_.spawn(proc(i, 1.0 + i * 0.5), f"p{i}")
        return log

    log1 = build(sim)
    sim.run()
    sim2 = Simulator()
    log2 = build(sim2)
    sim2.run()
    assert log1 == log2


def test_counter_sources_merge_and_collisions_raise(sim):
    def fabric_counters():
        return {"net_hops": 3}

    sim.add_counter_source(fabric_counters)
    assert sim.counters()["net_hops"] == 3

    def rogue_counters():
        return {"rogue": 1, "net_hops": 9}

    sim.add_counter_source(rogue_counters)
    with pytest.raises(ReproError, match=r"'net_hops'.*fabric_counters.*"
                                         r"rogue_counters"):
        sim.counters()

    # A source may not shadow the simulator's own counters either.
    other = Simulator()
    other.add_counter_source(lambda: {"events": 0})
    with pytest.raises(ReproError, match=r"'events'.*Simulator\.counters"):
        other.counters()
