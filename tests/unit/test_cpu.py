"""Unit tests for the preemptive CPU model — the heart of the paper's
CPU-utilization measurement methodology."""

import pytest

from repro.sim.cpu import BUSY, COMPUTE, IDLE, POLL, HostCpu, Ledger
from repro.sim.process import Busy, Compute, Trigger, WaitFor
from repro.sim.simulator import Simulator


@pytest.fixture
def cpu(sim):
    return HostCpu(sim, "cpu0")


def test_ledger_accumulates():
    led = Ledger()
    led.charge(1.0, "copy")
    led.charge(2.5, "match")
    led.charge(0.5, "copy")
    assert led.total == 4.0
    assert led.charges == {"copy": 1.5, "match": 2.5}


def test_ledger_rejects_negative():
    with pytest.raises(ValueError):
        Ledger().charge(-1.0, "x")


def test_busy_charges_category(sim, cpu):
    def main():
        yield Busy(5.0, "copy")
        yield Busy(3.0, "match")

    sim.run_process(main(), cpu=cpu)
    assert cpu.usage == {"copy": 5.0, "match": 3.0}
    assert cpu.state == IDLE


def test_busy_with_ledger_breakdown(sim, cpu):
    led = Ledger()
    led.charge(1.0, "a")
    led.charge(2.0, "b")

    def main():
        yield led

    sim.run_process(main(), cpu=cpu)
    assert cpu.usage == {"a": 1.0, "b": 2.0}
    assert sim.now == 3.0


def test_compute_preemption_extends_wall_time(sim, cpu):
    """A handler delivered mid-compute runs on the CPU and pushes the
    compute segment's completion out by its cost — the mechanism that lets
    the paper's busy-loop methodology capture asynchronous work."""

    def handler(ledger):
        ledger.charge(4.0, "async")

    def main():
        yield Compute(10.0)
        return sim.now

    sim.schedule(3.0, cpu.run_handler, handler)
    end = sim.run_process(main(), cpu=cpu)
    assert end == 14.0                      # 10 of compute + 4 of handler
    assert cpu.usage["app"] == 10.0         # requested compute fully charged
    assert cpu.usage["async"] == 4.0
    assert cpu.preemptions == 1


def test_multiple_preemptions_accumulate(sim, cpu):
    def handler(ledger):
        ledger.charge(2.0, "async")

    def main():
        yield Compute(10.0)
        return sim.now

    sim.schedule(1.0, cpu.run_handler, handler)
    sim.schedule(5.0, cpu.run_handler, handler)
    assert sim.run_process(main(), cpu=cpu) == 14.0
    assert cpu.preemptions == 2


def test_handler_during_busy_is_deferred(sim, cpu):
    order = []

    def handler(ledger):
        order.append(("handler", sim.now))
        ledger.charge(3.0, "async")

    def main():
        yield Busy(10.0, "work")
        order.append(("resumed", sim.now))

    sim.schedule(2.0, cpu.run_handler, handler)
    sim.run_process(main(), cpu=cpu)
    # Handler ran at the segment end, process resumed after its cost.
    assert order == [("handler", 10.0), ("resumed", 13.0)]
    assert cpu.deferred_handlers == 1


def test_handler_while_idle_runs_immediately(sim, cpu):
    ran = []

    def handler(ledger):
        ran.append(sim.now)
        ledger.charge(1.0, "async")

    sim.schedule(5.0, cpu.run_handler, handler)
    sim.run()
    assert ran == [5.0]
    assert cpu.usage["async"] == 1.0


def test_poll_charges_wall_time(sim, cpu):
    trig = Trigger()

    def main():
        yield WaitFor(trig, poll_category="poll")
        return sim.now

    sim.schedule(25.0, trig.fire, None)
    assert sim.run_process(main(), cpu=cpu) == 25.0
    assert cpu.usage["poll"] == 25.0


def test_poll_state_transitions(sim, cpu):
    trig = Trigger()
    states = []

    def main():
        yield Busy(1.0)
        states.append(cpu.state)
        yield WaitFor(trig, poll_category="poll")
        states.append(cpu.state)

    def observer():
        yield Busy(0.0)  # run at t=0
        # observe mid-poll
        sim.schedule(2.0, lambda: states.append(cpu.state))

    sim.spawn(main(), "main", cpu=cpu)
    sim.spawn(observer(), "obs")
    sim.schedule(5.0, trig.fire, None)
    sim.run()
    assert states == [IDLE, POLL, IDLE]


def test_interrupt_penalty_delays_poll_wake(sim, cpu):
    """Ignored-signal penalties make the poller notice the wake late and
    bill the extra time to poll."""
    trig = Trigger()

    def main():
        yield WaitFor(trig, poll_category="poll")
        return sim.now

    def fire():
        cpu.add_interrupt_penalty(4.0)
        trig.fire(None)

    sim.schedule(10.0, fire)
    assert sim.run_process(main(), cpu=cpu) == 14.0
    assert cpu.usage["poll"] == 14.0


def test_interrupt_penalty_extends_busy(sim, cpu):
    def main():
        yield Busy(10.0, "work")
        return sim.now

    sim.schedule(3.0, cpu.add_interrupt_penalty, 2.0)
    assert sim.run_process(main(), cpu=cpu) == 12.0
    assert cpu.usage["work"] == 10.0
    assert cpu.usage["signal"] == 2.0


def test_two_processes_cannot_share_cpu(sim, cpu):
    def spin():
        yield Busy(10.0)

    sim.spawn(spin(), "a", cpu=cpu)
    sim.spawn(spin(), "b", cpu=cpu)
    with pytest.raises(Exception):
        sim.run()


def test_total_usage_excludes(sim, cpu):
    def main():
        yield Busy(5.0, "work")
        yield Compute(7.0, "app")

    sim.run_process(main(), cpu=cpu)
    assert cpu.total_usage() == 12.0
    assert cpu.total_usage(exclude=("app",)) == 5.0
