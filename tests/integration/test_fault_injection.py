"""End-to-end fault-injection scenarios (repro.faults).

The acceptance suite for the fault subsystem: application-bypass reduce
must survive combined data+ACK packet loss bit-exactly, route around a
crashed rank at 32-rank scale via tree healing, keep the exit-delay
linger wall-clock bounded when a child rank is paused for longer than
the window, and stay deterministic across the orchestrator's process
pool.  Every run here executes under the autouse ASSERT-mode
InvariantMonitor (see tests/conftest.py), so any INV-* violation —
including the INV-FAULT/INV-DRAIN bookkeeping for crashed ranks —
fails the test by raising.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import MpiBuild, NetParams, quiet_cluster
from repro.bench.faulted import fault_reduce_benchmark
from repro.config import AbParams, FaultParams, PipelineParams
from repro.mpich.operations import SUM
from repro.orchestrate.points import (GRIDS, ConfigSpec, SweepPoint,
                                      execute_point)
from repro.orchestrate.runner import run_points

from conftest import contribution, expected_sum, run_ranks

LOSS_RATES = (0.0, 0.05, 0.1, 0.2)


# ---------------------------------------------------------------------------
# combined data + ACK loss: results bit-identical to the loss-free run
# ---------------------------------------------------------------------------

def _reduce_program(iterations, elements=4):
    def program(mpi):
        data = contribution(mpi.rank, elements)
        collected = []
        for _ in range(iterations):
            result = yield from mpi.reduce(data, op=SUM, root=0)
            if mpi.rank == 0:
                collected.append(np.array(result, copy=True))
            yield from mpi.compute(50.0)
        return collected
    return program

def test_ab_reduce_bit_identical_across_loss_sweep():
    """Satellite: go-back-N must hide every drop — data packets, AB
    headers and ACKs alike — so the root's results are bit-identical to
    the loss-free answer at every drop probability."""
    size, iterations = 8, 4
    baseline = None
    for prob in LOSS_RATES:
        config = replace(quiet_cluster(size, seed=13),
                         net=NetParams(drop_prob=prob,
                                       retransmit_timeout_us=120.0))
        out = run_ranks(size, _reduce_program(iterations),
                        build=MpiBuild.AB, config=config)
        results = out.results[0]
        assert len(results) == iterations
        for got in results:
            assert np.array_equal(got, expected_sum(size, 4))
        if prob == 0.0:
            baseline = results
            assert out.cluster.nodes[0].nic.reliable is None
        else:
            # bit-identical to the loss-free run, not merely approx-equal
            for got, want in zip(results, baseline):
                assert np.array_equal(got, want)
            assert out.cluster.fabric.packets_dropped > 0
            rel = sum(n.nic.reliable.stats.retransmissions
                      for n in out.cluster.nodes)
            assert rel > 0


# ---------------------------------------------------------------------------
# rank_crash + tree_heal at 32-rank scale (acceptance criterion)
# ---------------------------------------------------------------------------

def test_crash_with_tree_heal_completes_at_32_ranks():
    """Crash an internal rank (24: children 25, 26, 28) mid-run; the
    survivors must keep completing reduces with the surviving-rank sum
    and the orphaned subtrees must be healed onto a live ancestor."""
    size = 32
    config = replace(quiet_cluster(size, seed=2), faults=FaultParams(
        crash_rank=24, crash_at_us=900.0, tree_heal=True,
        descriptor_timeout_us=300.0, timeout_retries=2))
    res = fault_reduce_benchmark(config, MpiBuild.AB,
                                 iterations=6, gap_us=200.0)
    full = float(size * (size + 1) // 2)          # 528
    assert res.first_result == full               # pre-crash: everyone
    assert res.last_result == full - 25.0         # post-crash: survivors
    assert res.survivor_ok
    assert res.completed_ranks == size - 1
    assert res.root_iterations == 6
    assert res.sim_counters["ranks_crashed"] == 1
    assert res.sim_counters["subtrees_healed"] >= 1
    assert res.sim_counters["faults_injected"] == 1


def test_crash_composes_with_bursty_loss():
    """Crash x loss (ROADMAP 2d).  Rank 7 sent its instance-1 contribution
    to rank 6, which then died; rank 4's instance-1 descriptor adopted 7
    all the same, and 7's re-routed instance-3 packet — retransmission
    had delayed everything in between — arrived while that stale slot was
    still open.  The packet feeds the descriptor of its own instance, and
    the retry budget abandons the stale slot."""
    point = SweepPoint(
        experiment="crash_x_loss", kind="fault_reduce",
        config=ConfigSpec("paper", 8, 3, faults=FaultParams(
            crash_rank=6, crash_at_us=400.0, tree_heal=True,
            descriptor_timeout_us=300.0, timeout_retries=2,
            burst_prob=0.1, burst_len=3)),
        build="ab", elements=4, iterations=6, collect_invariants=True)
    res = execute_point(point)
    assert res.invariant_report["checks"] > 0
    assert res.invariant_report["violation_count"] == 0
    assert res.metrics["survivor_ok"] == 1.0
    assert res.metrics["last_result"] == 36.0 - 7.0
    assert res.counters["burst_packets_dropped"] > 0


@pytest.mark.parametrize("tree_heal", [False, True])
def test_long_pause_under_descriptor_timeouts_completes(tree_heal):
    """Pause x descriptor timeout: rank 7 freezes for ten timeouts, so
    rank 6 abandons it and rank 4, waiting on 6, abandons 6.  Their late
    contributions arrive after later instances opened; each is dropped as
    stale, and neither feeds a later instance nor strands in the
    unexpected queue."""
    point = SweepPoint(
        experiment="pause_x_timeout", kind="fault_reduce",
        config=ConfigSpec("paper", 8, 1, faults=FaultParams(
            pause_rank=7, pause_at_us=300.0, pause_duration_us=3000.0,
            descriptor_timeout_us=300.0, timeout_retries=1,
            tree_heal=tree_heal)),
        build="ab", elements=4, collect_invariants=True)
    res = execute_point(point)
    assert res.invariant_report["checks"] > 0
    assert res.invariant_report["violation_count"] == 0
    assert res.metrics["last_result"] == 36.0 - 8.0
    assert res.counters["descriptors_timed_out"] > 0


def test_crash_without_recovery_timers_is_refused_in_one_line(capsys):
    """A crash schedule with no descriptor timeout leaves a descriptor
    waiting on the dead rank forever; it is refused before it simulates."""
    from repro.orchestrate.__main__ import main
    spec = SweepPoint(
        experiment="crash_no_timers", kind="fault_reduce",
        config=ConfigSpec("paper", 8, 1, faults=FaultParams(
            crash_rank=6, crash_at_us=400.0)),
        build="ab", elements=4, iterations=6)
    with pytest.raises(ValueError, match="descriptor_timeout_us > 0"):
        fault_reduce_benchmark(spec.config.build(), MpiBuild.AB)
    assert main(["run-point", json.dumps(spec.to_dict())]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "recovery timers" in err


def test_crash_on_the_default_build_is_refused_in_one_line(capsys):
    """The blocking default reduce cannot route around a dead rank, so a
    crash schedule there is refused before it simulates, not left to end
    in a multi-line DeadlockError."""
    from repro.orchestrate.__main__ import main
    spec = SweepPoint(
        experiment="crash_nab", kind="fault_reduce",
        config=ConfigSpec("paper", 8, 1, faults=FaultParams(
            crash_rank=6, crash_at_us=400.0, tree_heal=True,
            descriptor_timeout_us=300.0, timeout_retries=2)),
        build="nab", elements=4, iterations=6)
    with pytest.raises(ValueError, match="needs the ab build"):
        fault_reduce_benchmark(spec.config.build(), MpiBuild.DEFAULT)
    assert main(["run-point", json.dumps(spec.to_dict())]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no recovery layer" in err


@pytest.mark.parametrize("size,crash_rank", [
    (8, 0), (8, 1), (8, 2), (8, 4), (16, 1), (16, 2), (16, 4), (16, 8)])
def test_crashing_the_root_or_a_root_child_is_refused_in_one_line(
        capsys, size, crash_rank):
    """The root's blocking receive has no recovery layer: a crashed child
    of it used to end in a multi-line DeadlockError, and a crashed root in
    a run that "succeeded" with no result.  Both are refused before they
    simulate; every other victim composes with healing."""
    from repro.orchestrate.__main__ import main
    spec = SweepPoint(
        experiment="crash_root_family", kind="fault_reduce",
        config=ConfigSpec("paper", size, 1, faults=FaultParams(
            crash_rank=crash_rank, crash_at_us=400.0, tree_heal=True,
            descriptor_timeout_us=300.0, timeout_retries=2)),
        build="ab", elements=4, iterations=6)
    with pytest.raises(ValueError, match="cannot crash the root"):
        fault_reduce_benchmark(spec.config.build(), MpiBuild.AB)
    assert main(["run-point", json.dumps(spec.to_dict())]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no recovery layer" in err


# ---------------------------------------------------------------------------
# one heal-aware neighbour derivation behind both AB routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pipeline, elements, pushes", [
    (None, 4, 0),
    (PipelineParams(segment_size_bytes=2048, max_inflight_segments=2),
     1024, 4),
], ids=["whole", "segmented"])
def test_healed_tree_is_the_same_on_both_routes(pipeline, elements, pushes):
    """Rank 6 (child of 4, parent of 7) is dead before the reduce starts.
    Every derivation reports the same healed tree on either route: rank 4
    bypasses one crashed child and adopts 7, rank 7 re-routes to 4.  The
    routes differ only in how often they derive: once at entry, plus —
    for a segmented internal node — once per segment descriptor pushed
    (a subtree healed mid-pipeline re-parents the remaining segments)."""
    config = replace(quiet_cluster(8, seed=0), faults=FaultParams(
        crash_rank=6, crash_at_us=0.0, tree_heal=True,
        descriptor_timeout_us=300.0, timeout_retries=2))
    if pipeline is not None:
        config = replace(config, pipeline=pipeline)

    def program(mpi):
        result = yield from mpi.reduce(contribution(mpi.rank, elements),
                                       op=SUM, root=0)
        yield from mpi.compute(200.0)
        return result

    out = run_ranks(8, program, build=MpiBuild.AB, config=config)
    assert np.array_equal(out.results[0],
                          expected_sum(8, elements) - 7.0)
    stats = {r: out.contexts[r].ab_engine.stats for r in range(8)}
    assert stats[4].subtrees_healed == 1 + pushes
    assert stats[7].sends_rerouted == 1            # a leaf: entry only
    assert sum(s.subtrees_healed for s in stats.values()) == 1 + pushes
    assert sum(s.sends_rerouted for s in stats.values()) == 1
    assert sum(s.descriptors_timed_out for s in stats.values()) == 0


# ---------------------------------------------------------------------------
# rank_pause vs the exit-delay window (regression, satellite)
# ---------------------------------------------------------------------------

def test_pause_longer_than_exit_delay_window_is_wall_clock_bounded():
    """A child paused for much longer than the exit-delay window must
    cost its lingering parent at most the window itself (plus poll
    granularity), never the full pause: the window is an absolute
    deadline, and the late contribution is absorbed asynchronously."""
    size, window, pause = 8, 400.0, 1500.0
    base = quiet_cluster(size, seed=1)
    config = replace(
        base,
        ab=replace(base.ab, exit_delay_policy="fixed",
                   exit_delay_coeff_us=window),
        faults=FaultParams(pause_rank=5, pause_at_us=50.0,
                           pause_duration_us=pause))
    res = fault_reduce_benchmark(config, MpiBuild.AB,
                                 iterations=1, gap_us=200.0)
    assert res.survivor_ok
    assert res.last_result == float(expected_sum(size, 4)[0])
    assert res.completed_ranks == size
    # the run stretches past the thaw (the late contribution had to be
    # absorbed asynchronously) ...
    assert res.makespan_us >= 50.0 + pause
    assert res.sim_counters["ranks_paused"] == 1


def test_pause_parent_poll_charge_stays_within_window():
    size, window, pause = 8, 400.0, 1500.0
    base = quiet_cluster(size, seed=1)
    config = replace(
        base,
        ab=replace(base.ab, exit_delay_policy="fixed",
                   exit_delay_coeff_us=window),
        faults=FaultParams(pause_rank=5, pause_at_us=50.0,
                           pause_duration_us=pause))
    out = run_ranks(size, _reduce_program(1), build=MpiBuild.AB,
                    config=config)
    assert np.array_equal(out.results[0][0], expected_sum(size, 4))
    parent_poll = out.cluster.nodes[4].cpu.usage.get("poll", 0.0)
    assert parent_poll < pause / 2.0
    assert parent_poll <= window + 50.0


# ---------------------------------------------------------------------------
# link_degrade: slower, never wrong
# ---------------------------------------------------------------------------

def test_link_degrade_slows_the_run_but_never_the_answer():
    base = quiet_cluster(8, seed=3)
    healthy = fault_reduce_benchmark(base, MpiBuild.AB, iterations=4)
    degraded = fault_reduce_benchmark(
        replace(base, faults=FaultParams(degrade_start_us=0.0,
                                         degrade_end_us=1.0e6,
                                         degrade_latency_factor=4.0,
                                         degrade_bandwidth_factor=3.0)),
        MpiBuild.AB, iterations=4)
    assert healthy.survivor_ok and degraded.survivor_ok
    assert degraded.last_result == healthy.last_result
    assert degraded.makespan_us > healthy.makespan_us
    assert degraded.sim_counters["degraded_packets"] > 0


# ---------------------------------------------------------------------------
# orchestrator determinism: the faults grid across the process pool
# ---------------------------------------------------------------------------

def test_faults_smoke_grid_parallel_matches_serial():
    points = GRIDS["faults"].points(seed=1, iterations=3)
    serial = run_points(points, jobs=1)
    parallel = run_points(points, jobs=2)
    assert [r.point.key() for r in parallel] == \
        [r.point.key() for r in serial]
    assert [r.metrics for r in parallel] == [r.metrics for r in serial]
    assert [r.counters for r in parallel] == [r.counters for r in serial]
    assert all(r.metrics["survivor_ok"] == 1.0 for r in serial)
    assert all((r.invariant_report or {}).get("violation_count", 0) == 0
               for r in serial)
    # The grid as a whole injected faults; the time-scheduled injectors
    # (pause, crash) fire deterministically even at smoke iteration
    # counts, unlike the probabilistic burst-loss trigger.
    armed = [r for r in serial if r.point.config.faults is not None]
    assert armed and sum(r.counters["faults_injected"] for r in armed) > 0
    for r in armed:
        f = r.point.config.faults
        if f.pause_rank >= 0:
            assert r.counters["ranks_paused"] == 1
        if f.crash_rank >= 0:
            assert r.counters["ranks_crashed"] == 1
            assert r.metrics["completed_ranks"] == r.point.config.size - 1
            if r.metrics["last_result"] != r.metrics["first_result"]:
                # At least one iteration ran entirely after the crash, so
                # the victim's child was healed out of the tree.
                assert r.counters["subtrees_healed"] >= 1
