"""Unit tests for triggers, notifiers and command validation."""

import pytest

from repro.errors import LedgerChargedError
from repro.sim.cpu import HostCpu
from repro.sim.process import Busy, Compute, Ledger, Notifier, Trigger
from repro.sim.simulator import Simulator


def test_trigger_single_shot():
    trig = Trigger()
    seen = []
    trig.add_waiter(seen.append)
    trig.fire(1)
    trig.fire(2)   # second fire is a no-op
    assert seen == [1]
    assert trig.value == 1


def test_trigger_late_waiter_gets_value():
    trig = Trigger()
    trig.fire("v")
    seen = []
    trig.add_waiter(seen.append)
    assert seen == ["v"]


def test_trigger_multiple_waiters():
    trig = Trigger()
    seen = []
    trig.add_waiter(lambda v: seen.append(("a", v)))
    trig.add_waiter(lambda v: seen.append(("b", v)))
    trig.fire(7)
    assert seen == [("a", 7), ("b", 7)]


def test_notifier_wait_then_notify():
    n = Notifier()
    t1 = n.wait()
    t2 = n.wait()
    assert n.notify("x") == 2
    assert t1.fired and t2.fired
    assert t1.value == "x"
    assert n.notify("y") == 0           # a notify clears its waiters


def test_notifier_notify_without_waiters():
    assert Notifier().notify() == 0


def test_notifier_each_wait_is_fresh():
    n = Notifier()
    t1 = n.wait()
    n.notify(1)
    t2 = n.wait()
    assert t1.fired and not t2.fired
    n.notify(2)
    assert t2.value == 2


def test_busy_rejects_negative_duration():
    with pytest.raises(ValueError):
        Busy(-1.0)
    with pytest.raises(ValueError):
        Compute(-0.1)


def test_ledger_charged_during_its_own_segment_is_refused():
    """A yielded ledger is the Busy segment: its length was fixed when the
    segment began, so a charge made before it ends is refused there,
    naming the process, instead of being billed but never spent."""
    sim = Simulator()
    cpu = HostCpu(sim, "cpu0")
    led = Ledger()
    led.charge(2.0, "x")

    def main():
        yield led

    sim.spawn(main(), "rank7", cpu)
    sim.schedule(1.0, led.charge, 5.0, "y")      # mid-segment
    with pytest.raises(LedgerChargedError, match="process 'rank7' charged"):
        sim.run()
    assert sim.now == 2.0                        # at the segment's end
    assert cpu.usage == {}                       # nothing was billed
