"""Focused tests for progress-engine internals: the signal entry point,
active-depth semantics, empty polls, and error paths."""

import numpy as np
import pytest

from repro.config import quiet_cluster
from repro.cluster.cluster import Cluster
from repro.errors import MatchError
from repro.gm.packet import Packet, PacketType
from repro.mpich.communicator import world_communicator
from repro.mpich.message import Envelope, TransferKind
from repro.mpich.progress import ProgressEngine
from repro.mpich.rank import MpiBuild, MpiRank
from repro.sim.cpu import Ledger
from conftest import run_ranks


def make_engine(size=2):
    cluster = Cluster(quiet_cluster(size))
    world = world_communicator(size)
    ranks = [MpiRank(node, world) for node in cluster.nodes]
    return cluster, ranks


def eager_env(src, dst, tag=1, ctx=100, value=1.0):
    data = np.array([value])
    return Envelope(src=src, dst=dst, tag=tag, context_id=ctx,
                    kind=TransferKind.EAGER, data=data, nbytes=8)


def test_drain_empty_charges_poll_cost():
    cluster, ranks = make_engine()
    led = Ledger()
    handled = ranks[0].progress.drain(led)
    assert handled == 0
    assert led.total == pytest.approx(ranks[0].costs.poll_empty_us)


def test_signal_entry_runs_progress_when_idle():
    cluster, ranks = make_engine()
    engine = ranks[1].progress
    # park an eager packet in the NIC queue
    env = eager_env(0, 1)
    pkt = Packet(0, 1, PacketType.AB_COLLECTIVE, 8, env)
    cluster.nodes[1].nic.rx_queue.append(pkt)
    led = Ledger()
    engine.on_signal(led, 5.0)
    assert engine.stats.signal_progress_runs == 1
    assert led.charges["signal"] == 5.0
    # the packet went through default matching into the unexpected queue
    assert len(engine.matching.unexpected) == 1


def test_signal_entry_ignored_while_active():
    cluster, ranks = make_engine()
    engine = ranks[1].progress
    engine.active_depth = 1
    led = Ledger()
    engine.on_signal(led, 5.0)
    assert engine.stats.signals_ignored == 1
    assert led.total == 0.0    # no charge: wall time billed to the poller
    # but the stolen kernel time was recorded as an interrupt penalty
    assert cluster.nodes[1].cpu.consume_interrupt_penalty() == 5.0
    engine.active_depth = 0


def test_wait_on_completed_request_returns_immediately():
    cluster, ranks = make_engine()
    from repro.mpich.requests import Request, Status
    req = Request("recv")
    req.complete(Status(0, 0, 8))
    gen = ranks[0].progress.wait(req)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == req.status


def test_cts_for_unknown_transfer_raises():
    cluster, ranks = make_engine()
    env = Envelope(src=0, dst=1, tag=1, context_id=100,
                   kind=TransferKind.RNDV_CTS, data=None, nbytes=0,
                   rndv_seq=424242)
    with pytest.raises(MatchError):
        ranks[1].progress._deliver(env, Ledger())


def test_rdata_for_unknown_transfer_raises():
    cluster, ranks = make_engine()
    env = Envelope(src=0, dst=1, tag=1, context_id=100,
                   kind=TransferKind.RNDV_DATA, data=np.zeros(1), nbytes=8,
                   rndv_seq=424242)
    with pytest.raises(MatchError):
        ranks[1].progress._deliver(env, Ledger())


def test_ab_send_beyond_eager_limit_rejected():
    cluster, ranks = make_engine()
    from repro.mpich.message import AbHeader
    big = np.zeros(4096)   # 32 KiB
    with pytest.raises(MatchError):
        ranks[0].progress.start_send(big, 1, 1, 100, Ledger(),
                                     ab=AbHeader(root=0, instance=0))


def test_send_cost_includes_eager_copy():
    cluster, ranks = make_engine()
    led = Ledger()
    data = np.zeros(128)   # 1 KiB
    ranks[0].progress.start_send(data, 1, 1, 100, led)
    assert led.charges["copy"] == pytest.approx(
        ranks[0].costs.copy_us(1024))
    assert "send" in led.charges


def test_progress_stats_counters():
    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.send(np.ones(1), 1)
            yield from mpi.send(np.zeros(4096), 1)   # rendezvous
            return None
        buf1, buf2 = np.zeros(1), np.zeros(4096)
        yield from mpi.recv(buf1, 0)
        yield from mpi.recv(buf2, 0)
        return None

    out = run_ranks(2, program)
    stats = out.contexts[0].progress.stats
    assert stats.sends_eager >= 1
    assert stats.sends_rndv == 1
    assert stats.send_copies >= 1


def test_interrupt_penalty_observable_in_latency():
    """An ignored signal while polling delays the poller's wake-up by the
    kernel overhead — measurable end to end."""
    def program(mpi):
        from repro.mpich.message import AbHeader
        if mpi.rank == 0:
            # Pretend there is an outstanding AB reduction so signals fire.
            mpi.node.nic.enable_signals(Ledger())
            buf = np.zeros(1)
            t0 = mpi.now
            # Block for the LATER plain message; the AB packet arrives
            # mid-poll and its signal must be ignored (progress active).
            yield from mpi.recv(buf, 1, tag=9)
            return mpi.now - t0
        yield from mpi.compute(20.0)
        led = Ledger()
        mpi.progress.start_send(np.ones(1), 0, 8,
                                    mpi.comm_world.pt2pt_context, led,
                                    ab=AbHeader(root=0, instance=0))
        yield led
        yield from mpi.compute(40.0)
        yield from mpi.send(np.ones(1), 0, tag=9)
        return None

    out = run_ranks(2, program)
    blocked_us = out.results[0]
    engine = out.contexts[0].progress
    # the signal was delivered mid-poll and ignored, and its cost shows up
    assert engine.stats.signals_ignored >= 1
    assert blocked_us > 60.0


# ----------------------------------------------------------------------
# ProgressEngine.spin — the one blocking poll loop
# ----------------------------------------------------------------------
def _spin_cluster():
    """A 2-rank cluster whose ``sim.at`` calls that arm a wake-up trigger
    (the per-wait deadline timer of a bounded spin) are counted."""
    cluster = Cluster(quiet_cluster(2))
    timers = []
    real_at = cluster.sim.at

    def counting_at(time, fn, *args, **kwargs):
        if getattr(fn, "__name__", "") == "fire":
            timers.append(time)
        return real_at(time, fn, *args, **kwargs)

    cluster.sim.at = counting_at
    return cluster, timers


def test_spin_on_a_fired_trigger_schedules_nothing():
    from repro.sim.process import Trigger
    cluster, ranks = make_engine()
    engine = ranks[0].progress
    queued = len(cluster.sim.queue)
    fired = Trigger()
    fired.fire()
    gen = engine.spin(fired, deadline=10.0)
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value is True
    assert len(cluster.sim.queue) == queued
    assert engine.stats.drains == 0
    assert engine.active_depth == 0


def test_spin_catches_an_arrival_before_the_deadline():
    from repro.runtime.program import run_program
    cluster, timers = _spin_cluster()

    def program(mpi):
        if mpi.rank == 0:
            yield from mpi.compute(50.0)
            yield from mpi.send(np.ones(1), 1, tag=3)
            return None
        request = yield from mpi.irecv(np.zeros(1), 0, tag=3)
        deadline = mpi.now + 500.0
        caught = yield from mpi.progress.spin(request.completion,
                                                  deadline)
        return caught, mpi.now < deadline

    out = run_program(cluster, program)
    assert out.results[1] == (True, True)
    assert len(timers) == 1               # one wait, one deadline timer
    assert out.contexts[1].progress.active_depth == 0


def test_spin_expires_at_the_deadline_with_one_timer_per_wait():
    from repro.runtime.program import run_program
    from repro.sim.process import Trigger
    cluster, timers = _spin_cluster()

    def program(mpi):
        if mpi.rank == 0:
            # Traffic that wakes the spinner without satisfying it: a
            # second wait, hence a second timer, is armed after it.
            yield from mpi.compute(30.0)
            yield from mpi.send(np.ones(1), 1, tag=3)
            return None
        deadline = mpi.now + 100.0
        caught = yield from mpi.progress.spin(Trigger(), deadline)
        return caught, mpi.now - deadline, deadline

    out = run_program(cluster, program)
    caught, overshoot, deadline = out.results[1]
    assert caught is False
    # Woken at the deadline; only the final (empty) poll is billed past it.
    assert overshoot == pytest.approx(
        out.contexts[1].costs.poll_empty_us)
    assert timers == [deadline, deadline]
    assert out.contexts[1].progress.active_depth == 0


def test_spin_restores_active_depth_on_exception():
    from repro.sim.process import Trigger
    cluster, ranks = make_engine()
    engine = ranks[0].progress
    gen = engine.spin(Trigger())
    next(gen)                             # parked on the empty-poll charge
    assert engine.active_depth == 1
    with pytest.raises(RuntimeError):
        gen.throw(RuntimeError("rank program died"))
    assert engine.active_depth == 0
