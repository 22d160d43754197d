"""``Simulator.run`` has one behaviour, however it is bounded or hooked.

The event loop hoists its ``until`` / ``max_events`` / hook tests out of
the per-event path (DESIGN.md §13), so these tests pin what that must not
change: a simulation driven in one-event or one-instant slices is the same
simulation, an armed monitor sees every event exactly once, and the per-point
work counters of the paper regime are what they were — an accidental event
merge (or split) fails here, in tier-1, not in a CI grid.  The fire order
itself is pinned too, as a digest that holds across commits.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.invariants import InvariantMonitor
from repro.config import FaultParams, NetParams
from repro.orchestrate.points import ConfigSpec, SweepPoint, execute_point
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator

_REAL_RUN = Simulator.run
_REAL_POP = EventQueue.pop


def _cpu_util_point(build: str = "ab") -> SweepPoint:
    return SweepPoint("loop-cpu_util", "cpu_util", ConfigSpec("paper", 8, 3),
                      build, 4, max_skew_us=1000.0, iterations=6)


def _lossy_point() -> SweepPoint:
    lossy = ConfigSpec(
        "paper", 8, 3,
        net=NetParams(topology="fattree", fattree_hosts_per_switch=4),
        faults=FaultParams(burst_prob=0.02, burst_len=3,
                           descriptor_timeout_us=20000.0, timeout_retries=3))
    return SweepPoint("loop-fault_reduce", "fault_reduce", lossy, "ab", 4,
                      iterations=30)


POINTS = [pytest.param(_cpu_util_point, id="cpu_util-ab-8"),
          pytest.param(_lossy_point, id="fault_reduce-lossy-8")]


# ---------------------------------------------------------------------------
# (i) bounded slices == one unbounded run
# ---------------------------------------------------------------------------

def _whole(sim: Simulator) -> None:
    _REAL_RUN(sim)


def _one_event_slices(sim: Simulator) -> None:
    while sim.queue:
        _REAL_RUN(sim, max_events=1)
    _REAL_RUN(sim)          # empty queue: only the deadlock check is left


def _one_instant_slices(sim: Simulator) -> None:
    # `until` = the next event's own time: the slice fires that whole
    # instant, stops at the first later event and leaves it queued.
    while (t := sim.queue.peek_time()) is not None:
        _REAL_RUN(sim, until=t)
    _REAL_RUN(sim)


def _drive(point: SweepPoint, driver, monkeypatch) -> dict:
    """Run ``point`` with every unbounded ``sim.run()`` replaced by
    ``driver``; returns everything observable about the run."""
    fired: list = []
    final_now: list = []

    def recording_pop(queue):
        ev = _REAL_POP(queue)
        if ev is not None:
            fired.append((ev.time, ev.priority, ev.seq, ev.fn.__qualname__))
        return ev

    def sliced_run(sim, *args, **kwargs):
        assert not args and not kwargs      # the benches run unbounded
        driver(sim)
        final_now.append(sim.now)
        return sim.now

    with monkeypatch.context() as patch:
        patch.setattr(EventQueue, "pop", recording_pop)
        patch.setattr(Simulator, "run", sliced_run)
        result = execute_point(point)
    return {"fired": fired, "now": final_now, "metrics": result.metrics,
            "counters": result.counters}


@pytest.mark.parametrize("make_point", POINTS)
def test_bounded_slices_are_the_same_simulation(make_point, monkeypatch):
    whole = _drive(make_point(), _whole, monkeypatch)
    assert whole["counters"]["events"] == len(whole["fired"]) > 1000
    for driver in (_one_event_slices, _one_instant_slices):
        sliced = _drive(make_point(), driver, monkeypatch)
        assert sliced["fired"] == whole["fired"], driver.__name__
        assert sliced == whole, driver.__name__


# ---------------------------------------------------------------------------
# (ii) an armed monitor sees every event exactly once
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_point", POINTS)
def test_monitor_hook_fires_once_per_event(make_point, monkeypatch):
    calls = []
    real_on_event = InvariantMonitor.on_event

    def counting_on_event(self, event_time, now):
        calls.append(event_time)
        real_on_event(self, event_time, now)

    monkeypatch.setattr(InvariantMonitor, "on_event", counting_on_event)
    # The suite's conftest arms an InvariantMonitor on every cluster.
    result = execute_point(make_point())
    assert len(calls) == result.counters["events"] > 1000


# ---------------------------------------------------------------------------
# (iii) the paper-8 work counters, pinned
# ---------------------------------------------------------------------------

#: One Busy = one event + one op; one poll wake = one event.  These move
#: only when the simulated protocol does — a perf change must not.
PAPER8_COUNTERS = {
    "nab": {"events": 2279, "events_cancelled": 0, "ops": 1455,
            "processes": 8},
    "ab": {"events": 2126, "events_cancelled": 18, "ops": 1284,
           "processes": 8},
}


@pytest.mark.parametrize("build", ["nab", "ab"])
def test_paper8_work_counters_are_pinned(build):
    counters = execute_point(_cpu_util_point(build)).counters
    assert {key: counters[key] for key in PAPER8_COUNTERS[build]} \
        == PAPER8_COUNTERS[build]


# ---------------------------------------------------------------------------
# (iv) the fire order, pinned across commits
# ---------------------------------------------------------------------------

#: sha256 over one ``time.hex() priority seq`` line per popped event.  A
#: same-instant reorder that leaves every metric and counter equal still
#: moves these; a faster queue or process driver must not.
FIRE_ORDER = [
    pytest.param(
        _cpu_util_point,
        "2bbc4931c59812b7857e5055624411e2f2e2d81c92e88990545fb48399da19b5",
        id="cpu_util-ab-8"),
    pytest.param(
        lambda: _cpu_util_point("nab"),
        "c6c5aa5111f864620f585de654c5380c172458c0f6492e838a933df13ce0d72d",
        id="cpu_util-nab-8"),
    pytest.param(
        _lossy_point,
        "ffc0b92ded6f57051e555c67388a56e2b98d161d0b406d99cb28835898ca4be3",
        id="fault_reduce-lossy-8"),
]


@pytest.mark.parametrize("make_point,sha256", FIRE_ORDER)
def test_fire_order_is_pinned(make_point, sha256, monkeypatch):
    fired = _drive(make_point(), _whole, monkeypatch)["fired"]
    lines = "".join(f"{time.hex()} {priority} {seq}\n"
                    for time, priority, seq, _ in fired)
    assert hashlib.sha256(lines.encode()).hexdigest() == sha256
