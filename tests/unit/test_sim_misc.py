"""Remaining simulator-surface coverage: bounded runs, wait_all, and
counters."""

import numpy as np
import pytest

from repro.sim.process import Busy, Trigger, WaitFor
from repro.sim.simulator import Simulator
from conftest import run_ranks


def test_run_max_events_bounds_processing():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]
    sim.run(max_events=100)
    assert fired == list(range(10))


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_live_process_count():
    sim = Simulator()

    def quick():
        yield Busy(1.0)

    def slow():
        yield Busy(10.0)

    sim.spawn(quick(), "q")
    sim.spawn(slow(), "s")
    assert sim.live_process_count == 2
    sim.run(until=5.0)
    assert sim.live_process_count == 1
    sim.run()
    assert sim.live_process_count == 0


def test_wait_all_collects_statuses():
    def program(mpi):
        if mpi.rank == 0:
            for tag in range(4):
                yield from mpi.send(np.array([float(tag)]), 1, tag=tag)
            return None
        bufs = [np.zeros(1) for _ in range(4)]
        reqs = []
        for tag in range(4):
            r = yield from mpi.irecv(bufs[tag], 0, tag=tag)
            reqs.append(r)
        statuses = yield from mpi.progress.wait_all(reqs)
        return [s.tag for s in statuses], [b[0] for b in bufs]

    out = run_ranks(2, program)
    tags, values = out.results[1]
    assert tags == [0, 1, 2, 3]
    assert values == [0.0, 1.0, 2.0, 3.0]


def test_request_cancel_withdraws_posted_recv():
    def program(mpi):
        if mpi.rank == 1:
            buf = np.zeros(1)
            req = yield from mpi.irecv(buf, 0, tag=1)
            req.cancel()
            assert mpi.progress.matching.remove_posted(req)
            # now receive the message that actually comes (tag 2)
            yield from mpi.recv(buf, 0, tag=2)
            return buf[0]
        yield from mpi.send(np.array([5.0]), 1, tag=2)
        return None

    out = run_ranks(2, program)
    assert out.results[1] == 5.0
