"""Unit tests for the repro.faults subsystem.

Covers the FaultParams configuration block (arming rules, validation,
JSON round trips through ConfigSpec), the injector registry and
FaultSchedule compilation, the HostCpu freeze/crash fault entry points,
and small end-to-end fault_reduce runs whose counters surface through
``Simulator.counters()``.
"""

from dataclasses import replace

import pytest

from repro import MpiBuild, quiet_cluster
from repro.bench.faulted import fault_reduce_benchmark
from repro.config import FaultParams
from repro.errors import ConfigError
from repro.faults import (FaultInjector, FaultSchedule, INJECTORS,
                          register_injector)
from repro.orchestrate.points import ConfigSpec
from repro.sim.cpu import HostCpu
from repro.sim.process import Busy


# ---------------------------------------------------------------------------
# FaultParams: arming rules and validation
# ---------------------------------------------------------------------------

def test_defaults_are_fully_disarmed():
    params = FaultParams()
    params.validate()
    assert not params.armed
    assert not params.degrade_armed
    assert not params.suppress_armed
    # disarmed params compile to an empty schedule
    assert FaultSchedule(params).injectors == []


@pytest.mark.parametrize("kwargs", [
    {"burst_prob": 0.01},
    {"degrade_start_us": 0.0, "degrade_end_us": 100.0,
     "degrade_latency_factor": 2.0},
    {"degrade_start_us": 0.0, "degrade_end_us": 100.0,
     "degrade_bandwidth_factor": 2.0},
    {"suppress_node": 3, "suppress_end_us": 100.0},
    {"pause_rank": 1, "pause_duration_us": 50.0},
    {"crash_rank": 2},
])
def test_each_injector_arms_independently(kwargs):
    params = FaultParams(**kwargs)
    params.validate()
    assert params.armed
    assert len(FaultSchedule(params).injectors) == 1


def test_degrade_needs_both_window_and_factor():
    # a window with factors at 1.0 is a no-op, not a fault
    assert not FaultParams(degrade_start_us=0.0,
                           degrade_end_us=100.0).degrade_armed
    # a factor without a window never fires
    assert not FaultParams(degrade_latency_factor=4.0).degrade_armed


@pytest.mark.parametrize("kwargs", [
    {"burst_prob": 1.5},
    {"burst_prob": -0.1},
    {"burst_len": 0},
    {"degrade_start_us": 100.0, "degrade_end_us": 50.0},
    {"degrade_start_us": 0.0, "degrade_end_us": 10.0,
     "degrade_latency_factor": 0.5},
    {"degrade_start_us": 0.0, "degrade_end_us": 10.0,
     "degrade_bandwidth_factor": 0.9},
    {"suppress_start_us": 100.0, "suppress_end_us": 50.0},
    {"pause_rank": 1},                      # armed without a duration
    {"pause_rank": 1, "pause_duration_us": -5.0},
    {"descriptor_timeout_us": -1.0},
    {"timeout_retries": -1},
])
def test_validate_rejects_bad_blocks(kwargs):
    with pytest.raises(ConfigError):
        FaultParams(**kwargs).validate()


def test_degrade_links_list_coerced_to_tuple():
    # JSON round trips hand lists back; the block must stay hashable
    params = FaultParams(degrade_links=[1, 2])
    assert params.degrade_links == (1, 2)
    hash(params)


# ---------------------------------------------------------------------------
# injector registry and FaultSchedule compilation
# ---------------------------------------------------------------------------

def test_registry_contents():
    assert sorted(INJECTORS) == ["link_degrade", "nic_signal_suppress",
                                 "packet_loss_burst", "rank_crash",
                                 "rank_pause"]


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigError, match="duplicate fault injector"):
        @register_injector("rank_crash")
        class Clone(FaultInjector):  # pragma: no cover - never registered
            pass
    # the failed registration must not have clobbered the original
    assert INJECTORS["rank_crash"].__name__ == "RankCrash"


def test_schedule_instantiates_armed_injectors_in_name_order():
    params = FaultParams(burst_prob=0.1, crash_rank=2,
                         pause_rank=1, pause_duration_us=10.0)
    schedule = FaultSchedule(params)
    assert [i.name for i in schedule.injectors] == \
        ["packet_loss_burst", "rank_crash", "rank_pause"]


def test_crash_oracle():
    schedule = FaultSchedule(FaultParams(crash_rank=3, crash_at_us=100.0))
    assert not schedule.is_crashed(3, 99.0)
    assert schedule.is_crashed(3, 100.0)
    assert not schedule.is_crashed(2, 500.0)
    assert schedule.crashed_ranks(50.0) == set()
    assert schedule.crashed_ranks(100.0) == {3}


def test_schedule_counters_before_install():
    counters = FaultSchedule(FaultParams(burst_prob=0.1)).counters()
    assert counters["faults_injected"] == 0
    assert counters["burst_packets_dropped"] == 0
    assert counters["retransmissions"] == 0
    assert counters["descriptors_timed_out"] == 0
    assert counters["subtrees_healed"] == 0
    assert counters["signals_suppressed"] == 0


# ---------------------------------------------------------------------------
# ConfigSpec integration: JSON round trip, variant tags, build()
# ---------------------------------------------------------------------------

def test_configspec_faults_round_trip():
    import json
    spec = ConfigSpec("quiet", 8, 1,
                      faults=FaultParams(burst_prob=0.02,
                                         degrade_links=[1, 2]))
    wire = json.loads(json.dumps(spec.to_dict()))
    back = ConfigSpec.from_dict(wire)
    assert back == spec
    assert back.faults.degrade_links == (1, 2)


def test_configspec_faults_change_variant_tag():
    plain = ConfigSpec("quiet", 8, 1)
    faulted = ConfigSpec("quiet", 8, 1,
                         faults=FaultParams(crash_rank=2))
    assert plain.variant() == "quiet"
    assert faulted.variant().startswith("quiet+")
    assert faulted.variant() != plain.variant()


def test_configspec_build_applies_faults():
    faults = FaultParams(pause_rank=1, pause_at_us=10.0,
                         pause_duration_us=20.0)
    config = ConfigSpec("quiet", 4, 1, faults=faults).build()
    assert config.faults == faults
    # the default factory output stays disarmed
    assert not ConfigSpec("quiet", 4, 1).build().faults.armed


# ---------------------------------------------------------------------------
# HostCpu fault entry points (freeze / crash)
# ---------------------------------------------------------------------------

def copy_then_log(sim, log):
    """A process that holds its CPU for 10 us of copying, then logs when
    it resumed."""
    yield Busy(10.0, "copy")
    log.append(sim.now)


def test_freeze_extends_running_busy_segment(sim):
    cpu = HostCpu(sim, "cpu0")
    done = []
    sim.spawn(copy_then_log(sim, done), "p", cpu)
    sim.schedule(3.0, cpu.freeze, 20.0)
    sim.run()
    assert done == [30.0]               # 10us of work stretched by the pause
    assert cpu.usage["copy"] == 10.0    # billed work is unchanged


def test_freeze_defers_new_segments_until_thaw(sim):
    cpu = HostCpu(sim, "cpu0")
    cpu.freeze(15.0)
    done = []
    sim.spawn(copy_then_log(sim, done), "p", cpu)
    sim.run()
    assert done == [25.0]


def test_frozen_poll_time_is_not_charged_as_spinning(sim):
    cpu = HostCpu(sim, "cpu0")
    cpu.begin_poll("poll")
    cpu.freeze(30.0)
    sim.schedule(50.0, lambda: None)
    sim.run()
    cpu.end_poll()
    assert cpu.usage["poll"] == 20.0    # 50us elapsed, 30 of them frozen


def test_handler_held_until_thaw(sim):
    cpu = HostCpu(sim, "cpu0")
    cpu.freeze(15.0)
    runs = []
    cpu.run_handler(lambda ledger: runs.append(sim.now))
    sim.run()
    assert runs == [15.0]


def test_crash_discards_segment_and_pending_handlers(sim):
    cpu = HostCpu(sim, "cpu0")
    resumed = []
    sim.spawn(copy_then_log(sim, resumed), "p", cpu)
    sim.schedule(1.0, cpu.run_handler,
                 lambda ledger: ledger.charge(1.0, "async"))
    sim.schedule(3.0, cpu.crash)
    sim.run(error_on_deadlock=False)
    assert cpu.deferred_handlers == 1
    assert cpu.crashed
    assert resumed == []                # the process never runs again
    assert cpu.handler_runs == 0        # the deferred handler was discarded


def test_crashed_cpu_ignores_new_handlers(sim):
    cpu = HostCpu(sim, "cpu0")
    cpu.crash()
    cpu.run_handler(lambda ledger: ledger.charge(1.0, "async"))
    assert cpu.handler_runs == 0
    assert cpu.usage == {}


# ---------------------------------------------------------------------------
# end-to-end: counters surface through Simulator.counters()
# ---------------------------------------------------------------------------

def test_fault_free_run_has_no_fault_counters():
    config = quiet_cluster(4, seed=1)
    res = fault_reduce_benchmark(config, MpiBuild.AB, iterations=2)
    assert res.survivor_ok
    assert res.last_result == 10.0      # sum(rank + 1 for rank in 0..3)
    # determinism neutrality: disarmed faults add no counter source
    assert "faults_injected" not in res.sim_counters


def test_burst_loss_is_hidden_by_reliable_delivery():
    config = replace(quiet_cluster(8, seed=5), faults=FaultParams(
        burst_prob=0.2, burst_len=2,
        descriptor_timeout_us=20000.0, timeout_retries=3))
    res = fault_reduce_benchmark(config, MpiBuild.AB, iterations=3)
    assert res.survivor_ok
    assert res.first_result == res.last_result == 36.0
    assert res.completed_ranks == 8
    assert res.sim_counters["faults_injected"] > 0
    assert res.sim_counters["burst_packets_dropped"] == \
        res.sim_counters["faults_injected"]
    assert res.sim_counters["retransmissions"] > 0


def test_signal_suppression_still_completes():
    config = replace(quiet_cluster(8, seed=1), faults=FaultParams(
        suppress_node=4, suppress_start_us=0.0, suppress_end_us=1500.0))
    res = fault_reduce_benchmark(config, MpiBuild.AB, iterations=3)
    assert res.survivor_ok
    assert res.last_result == 36.0
    assert res.sim_counters["suppress_windows_hit"] >= 1
    assert res.sim_counters["signals_suppressed"] == \
        res.sim_counters["suppress_windows_hit"]
