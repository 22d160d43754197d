"""The InvariantMonitor must actually catch violated protocol invariants.

The integration suite proves the AB engine *upholds* the paper's Sec. IV/V
invariants (conftest runs every scenario under an assert-mode monitor);
these tests prove the monitor is not vacuous — each invariant class is
deliberately violated and the monitor must flag it.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import ASSERT, COLLECT, InvariantMonitor
from repro.cluster.cluster import Cluster
from repro.config import quiet_cluster
from repro.core.broadcast import AbBroadcast
from repro.core.descriptor import ReduceDescriptor
from repro.errors import InvariantViolation
from repro.mpich.communicator import world_communicator
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild, MpiRank
from repro.runtime.program import run_program
from repro.sim.cpu import Ledger
from conftest import contribution, expected_sum


def build_ab_cluster(size=4, mode=COLLECT, seed=0):
    """A wired AB cluster whose engines are registered with a monitor."""
    cfg = quiet_cluster(size, seed=seed)
    monitor = InvariantMonitor(mode=mode)
    cluster = Cluster(cfg, monitor=monitor)
    world = world_communicator(size)
    contexts = [MpiRank(node, world, MpiBuild.AB)
                for node in cluster.nodes]
    return cluster, contexts, monitor


# ----------------------------------------------------------------------
# INV-SIGNAL — the headline acceptance case
# ----------------------------------------------------------------------
def test_catches_signals_enabled_with_empty_descriptor_queue():
    """Enabling NIC signals with nothing outstanding violates Fig. 3."""
    cluster, contexts, monitor = build_ab_cluster(mode=ASSERT)
    nic = cluster.nodes[1].nic
    assert contexts[1].ab_engine.descriptors.empty
    with pytest.raises(InvariantViolation) as exc:
        nic.enable_signals(Ledger())
    assert "INV-SIGNAL" in str(exc.value)
    assert "empty descriptor queue" in str(exc.value)
    assert exc.value.report["violations"][0]["node"] == 1


def test_collect_mode_records_instead_of_raising():
    cluster, contexts, monitor = build_ab_cluster(mode=COLLECT)
    cluster.nodes[2].nic.enable_signals(Ledger())
    assert not monitor.ok
    violation = monitor.violations[0]
    assert violation.invariant == "INV-SIGNAL"
    assert violation.node == 2


def test_catches_signals_left_enabled_after_drain():
    cluster, contexts, monitor = build_ab_cluster(mode=COLLECT)
    engine = contexts[0].ab_engine
    engine.nic.signals_enabled = True  # bypass the NIC API: seed the bug
    monitor.on_queue_drained(0, cluster.sim.now)
    assert [v.invariant for v in monitor.violations] == ["INV-SIGNAL"]
    assert "still enabled" in monitor.violations[0].detail


def test_signal_pin_justifies_enabled_signals():
    """An armed AB broadcast keeps signals on with an empty queue."""
    cluster, contexts, monitor = build_ab_cluster(mode=ASSERT)
    engine = contexts[3].ab_engine
    AbBroadcast(engine)             # enables signals — must NOT violate
    assert engine.nic.signals_enabled and monitor.ok
    monitor.on_reduce_exit(3, cluster.sim.now)   # Fig. 3 diamond holds
    assert monitor.ok


# ----------------------------------------------------------------------
# INV-CLOCK
# ----------------------------------------------------------------------
def test_catches_backwards_event_time():
    monitor = InvariantMonitor(mode=COLLECT)
    monitor.on_event(5.0, 5.0)      # equal is fine
    monitor.on_event(6.0, 5.0)      # forward is fine
    assert monitor.ok
    monitor.on_event(4.0, 5.0)      # backwards is not
    assert [v.invariant for v in monitor.violations] == ["INV-CLOCK"]


def test_assert_mode_clock_violation_carries_report():
    monitor = InvariantMonitor(mode=ASSERT)
    with pytest.raises(InvariantViolation) as exc:
        monitor.on_event(1.0, 2.0)
    assert exc.value.report["mode"] == ASSERT
    assert exc.value.report["violation_count"] == 1


# ----------------------------------------------------------------------
# INV-FIFO
# ----------------------------------------------------------------------
def test_catches_non_monotonic_per_pair_delivery():
    monitor = InvariantMonitor(mode=COLLECT)
    monitor.on_delivery(0, 1, 5.0, 0.0)
    monitor.on_delivery(0, 1, 6.0, 0.0)     # advancing is fine
    monitor.on_delivery(2, 1, 5.5, 0.0)     # other pairs are independent
    assert monitor.ok
    monitor.on_delivery(0, 1, 6.0, 0.0)     # equal arrival: reordering risk
    assert [v.invariant for v in monitor.violations] == ["INV-FIFO"]
    violation = monitor.violations[0]
    assert violation.node == 1
    assert "FIFO" in violation.detail
    assert violation.context["src"] == 0


def test_fifo_violation_raises_in_assert_mode():
    monitor = InvariantMonitor(mode=ASSERT)
    monitor.on_delivery(3, 0, 2.0, 0.0)
    with pytest.raises(InvariantViolation) as exc:
        monitor.on_delivery(3, 0, 1.0, 0.0)
    assert "INV-FIFO" in str(exc.value)


def test_attach_wires_the_fabric_delivery_hook():
    monitor = InvariantMonitor(mode=COLLECT)
    cluster = Cluster(quiet_cluster(4, seed=0), monitor=monitor)
    assert cluster.fabric.monitor is monitor


@pytest.mark.parametrize("topology", ["crossbar", "fattree", "torus"])
def test_multi_hop_runs_are_fifo_clean(topology):
    """Every topology must uphold per-pair FIFO end to end (Sec. IV-D)."""
    from repro.config import NetParams

    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        yield from mpi.barrier()
        return result

    cfg = replace(quiet_cluster(8, seed=0), net=NetParams(
        topology=topology, fattree_hosts_per_switch=4))
    monitor = InvariantMonitor(mode=ASSERT)
    cluster = Cluster(cfg, monitor=monitor)
    run_program(cluster, program, build=MpiBuild.AB)
    assert monitor.ok
    assert monitor._fifo_last            # the hook saw real deliveries


# ----------------------------------------------------------------------
# INV-COPY
# ----------------------------------------------------------------------
def test_per_message_copy_counts():
    monitor = InvariantMonitor(mode=COLLECT)
    # The protocol's copy table (paper Sec. V-B/V-C).
    monitor.on_ab_message(0, "expected", 0, False, 1.0)
    monitor.on_ab_message(0, "unexpected", 1, False, 1.0)
    monitor.on_ab_message(0, "expected", 1, True, 1.0)
    monitor.on_ab_message(0, "unexpected", 2, True, 1.0)
    assert monitor.ok
    monitor.on_ab_message(0, "expected", 1, False, 2.0)   # paid a copy
    monitor.on_ab_message(0, "unexpected", 0, False, 2.0) # skipped its copy
    monitor.on_ab_message(0, "bogus-class", 0, False, 2.0)
    assert [v.invariant for v in monitor.violations] == ["INV-COPY"] * 3


def test_finalize_catches_copy_accounting_drift():
    """Tampering with the stats counters breaks the Sec. V identity."""
    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        yield from mpi.barrier()
        return result

    monitor = InvariantMonitor(mode=COLLECT)
    cluster = Cluster(quiet_cluster(8, seed=3), monitor=monitor)
    out = run_program(cluster, program, build=MpiBuild.AB)
    assert np.allclose(out.results[0], expected_sum(8, 4))
    assert monitor.ok                      # the real engine satisfies it
    out.contexts[1].ab_engine.stats.ab_copies += 1
    monitor.finalize()
    drifts = [v for v in monitor.violations if v.invariant == "INV-COPY"]
    assert len(drifts) == 1 and drifts[0].node == 1
    assert "drifted" in drifts[0].detail


# ----------------------------------------------------------------------
# INV-DRAIN
# ----------------------------------------------------------------------
def test_finalize_catches_undrained_descriptor_queue():
    cluster, contexts, monitor = build_ab_cluster(mode=COLLECT)
    engine = contexts[2].ab_engine
    engine.descriptors.push(ReduceDescriptor(
        context_id=0, root_world=0, instance=0, parent_world=0,
        children_world=[3], op=SUM, acc=np.zeros(2), created_at=0.0))
    report = monitor.finalize()
    drains = [v for v in monitor.violations if v.invariant == "INV-DRAIN"]
    assert len(drains) == 1 and drains[0].node == 2
    assert "never completed" in drains[0].detail
    assert report["violation_count"] == len(monitor.violations)


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------
def test_clean_run_is_ok_and_report_serializes():
    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, 4), op=SUM,
                                       root=0)
        yield from mpi.barrier()
        return result

    monitor = InvariantMonitor(mode=COLLECT)
    cluster = Cluster(quiet_cluster(8, seed=0), monitor=monitor)
    run_program(cluster, program, build=MpiBuild.AB)
    assert monitor.ok
    assert monitor.checks > 0              # the hooks actually fired
    report = monitor.report()
    assert report["violation_count"] == 0
    json.dumps(report)                     # must be JSON-serializable


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        InvariantMonitor(mode="bogus")
