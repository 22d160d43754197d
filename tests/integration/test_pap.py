"""Acceptance suite for repro.workload + the PAP-aware allreduce.

Pins the PR's contract end to end: a disarmed :class:`WorkloadParams`
leaves every simulation bit-identical (finish times, results, the full
``Simulator.counters()`` snapshot); the SRA / PRA lowerings satisfy the
four-family schedule validator at every tree shape, size and arrival
order; executing them yields correct sums (bit-exact for int64, within
reassociation tolerance for float64 SUM); and the fig_pap sweep shows
the crossover the PAP literature predicts — application-bypass wins at
kappa ~ 0, the arrival-aware schedules win once one straggler group
dominates.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.bench.pap import pap_benchmark
from repro.bench.cpu_util import cpu_util_benchmark
from repro.config import WorkloadParams, quiet_cluster
from repro.core.interpreter import execute_schedule
from repro.experiments import fig_pap
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from repro.runtime.program import build_cluster, run_program
from repro.schedule.lower import lower
from repro.schedule import ScheduleValidationError
from repro.topo.trees import make_tree_shape

from conftest import run_ranks

SIZE = 8
BURSTY = WorkloadParams(pattern="bursty", scale_us=1200.0, jitter_us=50.0,
                        straggler_frac=0.25)


# ---------------------------------------------------------------------------
# disarmed: bit-identical to the pre-workload behaviour
# ---------------------------------------------------------------------------

def _allreduce_program(elements=256, iterations=3):
    def program(mpi):
        results = []
        for _ in range(iterations):
            yield from mpi.barrier()
            data = np.full(elements, float(mpi.rank + 1), dtype=np.float64)
            result = yield from mpi.allreduce(data, op=SUM)
            results.append(result.copy())
        return results
    return program


def test_default_config_builds_no_workload_model():
    """Disarmed configs must construct nothing: no model, no counter
    source, no ``workload_*`` keys leaking into the BENCH snapshot."""
    cluster = build_cluster(quiet_cluster(4, seed=1), None)
    assert cluster.workload is None
    assert not any(k.startswith(("workload_", "arrival_"))
                   for k in cluster.sim.counters())


def test_disarmed_workload_is_bit_identical():
    """The whole disarmed-is-free guarantee for the default path: an
    explicit ``pattern="none"`` block must not perturb finish times,
    results or any simulator counter."""
    program = _allreduce_program()
    plain = run_ranks(SIZE, program, seed=5)
    disarmed = run_ranks(
        SIZE, program,
        config=replace(quiet_cluster(SIZE, seed=5), workload=WorkloadParams()))
    assert plain.finished_at == disarmed.finished_at
    assert plain.sim_counters() == disarmed.sim_counters()
    for a, b in zip(plain.results, disarmed.results):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_zero_delay_armed_workload_changes_no_timing():
    """An armed constant-0 pattern exercises the entire injection path
    (model built, trace prepared, every rank charged) yet must reproduce
    the disarmed timings exactly — the injected delay is 0.0 and float
    addition of 0.0 is exact.  Only the workload counters may appear."""
    base = quiet_cluster(SIZE, seed=9)
    armed = replace(base, workload=WorkloadParams(pattern="constant",
                                                  scale_us=0.0))
    r_plain = pap_benchmark(base, algo="nab", elements=128, iterations=4,
                            warmup=1)
    r_armed = pap_benchmark(armed, algo="nab", elements=128, iterations=4,
                            warmup=1)
    assert np.array_equal(r_plain.samples, r_armed.samples)
    assert r_plain.avg_makespan_us == r_armed.avg_makespan_us
    stripped = {k: v for k, v in r_armed.sim_counters.items()
                if not k.startswith(("workload_", "arrival_"))}
    assert stripped == r_plain.sim_counters
    assert r_armed.sim_counters["workload_delay_us"] == 0.0
    assert r_armed.sim_counters["workload_delays"] == SIZE * 5


def test_cpu_util_benchmark_disarmed_unchanged_by_wiring():
    """The legacy CPU-utilization benchmark (the one file the injection
    hook lives in) must report identical numbers for the default config
    and an explicitly disarmed block."""
    base = cpu_util_benchmark(quiet_cluster(4, seed=3), MpiBuild.DEFAULT,
                              elements=4, iterations=10, warmup=2)
    explicit = cpu_util_benchmark(
        replace(quiet_cluster(4, seed=3), workload=WorkloadParams()),
        MpiBuild.DEFAULT, elements=4, iterations=10, warmup=2)
    assert base.avg_util_us == explicit.avg_util_us
    assert base.direct_avg_util_us == explicit.direct_avg_util_us
    assert np.array_equal(base.per_node_util_us, explicit.per_node_util_us)
    assert base.sim_counters == explicit.sim_counters


def test_cpu_util_benchmark_accepts_armed_workload():
    """Armed path: delays are injected, counted, and reported."""
    r = cpu_util_benchmark(
        replace(quiet_cluster(4, seed=3), workload=BURSTY),
        MpiBuild.DEFAULT, elements=4, iterations=10, warmup=2)
    assert r.sim_counters["workload_pattern"] == "bursty"
    assert r.sim_counters["workload_delays"] == 4 * 12
    assert r.sim_counters["workload_delay_us"] > 0.0


# ---------------------------------------------------------------------------
# SRA / PRA lowerings: validator matrix
# ---------------------------------------------------------------------------

PAP_LOWERINGS = ("allreduce.pap_sorted", "allreduce.pap_prereduced")
SHAPES = (("binomial", 2), ("knomial", 4), ("chain", 2), ("bine", 2))
SIZES = (1, 2, 3, 5, 8, 13, 17)


def _orders(size, seed=0):
    rng = np.random.default_rng(seed)
    yield None
    yield tuple(reversed(range(size)))
    yield tuple(int(r) for r in rng.permutation(size))


@pytest.mark.parametrize("name", PAP_LOWERINGS)
@pytest.mark.parametrize("shape_name,radix", SHAPES)
def test_pap_lowerings_validate_at_every_size_and_order(name, shape_name,
                                                        radix):
    shape = make_tree_shape(shape_name, radix=radix)
    for size in SIZES:
        for nseg in (0, 3):
            for order in _orders(size, seed=size):
                sch = lower(name, shape, size, nseg=nseg, order=order)
                assert sch.validate() is sch
                if order is not None and size > 1:
                    # The last arrival hosts the final result.
                    assert sch.root == order[-1]


def test_pap_lowerings_reject_non_permutations():
    shape = make_tree_shape("binomial", radix=2)
    for name in PAP_LOWERINGS:
        for bad in ((0, 0, 1, 2), (1, 2, 3, 4), (0, 1)):
            with pytest.raises(Exception):
                lower(name, shape, 4, order=bad)


# ---------------------------------------------------------------------------
# execution correctness through the interpreter
# ---------------------------------------------------------------------------

def _schedule_program(schedule, data_factory):
    def program(mpi):
        data = data_factory(mpi.rank)
        result = yield from execute_schedule(
            mpi, schedule, data, SUM, comm=mpi.comm_world)
        return np.array(result, copy=True)
    return program


@pytest.mark.parametrize("name", PAP_LOWERINGS)
@pytest.mark.parametrize("shape_name,radix", (("binomial", 2),
                                              ("chain", 2)))
def test_pap_execution_int64_bit_exact(name, shape_name, radix):
    shape = make_tree_shape(shape_name, radix=radix)
    elements = 64
    expected = np.full(elements, SIZE * (SIZE + 1) // 2, dtype=np.int64)
    for order in _orders(SIZE, seed=42):
        schedule = lower(name, shape, SIZE, order=order).validate()
        out = run_ranks(SIZE, _schedule_program(
            schedule,
            lambda rank: np.full(elements, rank + 1, dtype=np.int64)))
        for rank in range(SIZE):
            assert np.array_equal(out.results[rank], expected)


@pytest.mark.parametrize("name", PAP_LOWERINGS)
def test_pap_execution_float64_within_tolerance(name):
    shape = make_tree_shape("binomial", radix=2)
    elements = 64
    expected = sum(np.pi * (rank + 1) for rank in range(SIZE))
    for order in _orders(SIZE, seed=7):
        schedule = lower(name, shape, SIZE, order=order).validate()
        out = run_ranks(SIZE, _schedule_program(
            schedule,
            lambda rank: np.full(elements, np.pi * (rank + 1))))
        for rank in range(SIZE):
            assert np.allclose(out.results[rank], expected)


def test_pap_benchmark_runs_sra_and_pra_under_bursty():
    """End-to-end: the benchmark itself asserts every rank's sums, so a
    green run is a correctness statement; also pin the reported stats."""
    config = replace(quiet_cluster(SIZE, seed=11), workload=BURSTY)
    for algo in ("sra", "pra"):
        r = pap_benchmark(config, algo=algo, elements=128, iterations=4,
                          warmup=1)
        assert r.samples.shape == (4,)
        assert r.arrival_stats["arrival_kappa"] > 0.0
        assert r.pattern == "bursty"


def test_pap_benchmark_guards():
    config = quiet_cluster(4, seed=1)
    with pytest.raises(ValueError):
        pap_benchmark(config, algo="quantum")
    with pytest.raises(ValueError):
        pap_benchmark(config, algo="pipelined")  # pipeline disarmed
    from repro.config import PipelineParams
    piped = replace(config, pipeline=PipelineParams(segment_size_bytes=2048))
    with pytest.raises(ValueError):
        pap_benchmark(piped, algo="sra")  # whole-message only


@pytest.mark.parametrize("algo", ["sra", "pra"])
def test_pap_schedule_with_armed_pipeline_is_refused_in_one_line(capsys,
                                                                 algo):
    """The PAP schedules execute whole-message: with an armed pipeline
    ``run-point`` refuses the point in one line, before it simulates."""
    import json

    from repro.config import PipelineParams
    from repro.orchestrate.__main__ import main
    from repro.orchestrate.points import ConfigSpec, SweepPoint
    spec = SweepPoint(
        experiment="pap_piped", kind="pap",
        config=ConfigSpec("quiet", 8, 1, pipeline=PipelineParams(
            segment_size_bytes=512)),
        build="nab", elements=256, iterations=2,
        options={"algo": algo})
    assert main(["run-point", json.dumps(spec.to_dict())]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "execute whole-message" in err


def test_pap_benchmark_deterministic():
    config = replace(quiet_cluster(SIZE, seed=17), workload=BURSTY)
    a = pap_benchmark(config, algo="sra", elements=128, iterations=3,
                      warmup=1)
    b = pap_benchmark(config, algo="sra", elements=128, iterations=3,
                      warmup=1)
    assert np.array_equal(a.samples, b.samples)
    assert a.sim_counters == b.sim_counters


# ---------------------------------------------------------------------------
# fig_pap: the crossover claim
# ---------------------------------------------------------------------------

def test_fig_pap_shows_both_crossover_directions():
    """The acceptance criterion: at least one pattern where a PAP-aware
    schedule beats application-bypass, and at least one where ab wins."""
    out = fig_pap.run(size=16, elements=512, iterations=3, seed=1, jobs=1,
                      topologies=(("crossbar", None),))
    cells = {r.point.experiment: r for r in out.points}
    ab_constant = cells["fig_pap-constant-ab"].metrics["avg_makespan_us"]
    ab_bursty = cells["fig_pap-bursty-ab"].metrics["avg_makespan_us"]
    best_pap_constant = min(
        cells[f"fig_pap-constant-{a}"].metrics["avg_makespan_us"]
        for a in ("sra", "pra"))
    best_pap_bursty = min(
        cells[f"fig_pap-bursty-{a}"].metrics["avg_makespan_us"]
        for a in ("sra", "pra"))
    assert ab_constant < best_pap_constant   # balanced arrivals: ab wins
    assert best_pap_bursty < ab_bursty       # straggler group: PAP wins
    # The table's series are those cells by name: one row per pattern
    # (x = its kappa), one series per algorithm plus the two factors.
    (table,) = out.tables
    assert [s.label for s in table.series] == [
        "nab", "ab", "pipelined", "sra", "pra", "ab/sra", "ab/pra"]
    assert table.x_values == [
        round(cells[f"fig_pap-{p}-ab"].metrics["arrival_kappa"], 2)
        for p in ("constant", "bursty")]
    for algo in fig_pap.ALGOS:
        assert table._find(algo).values == [
            cells[f"fig_pap-{p}-{algo}"].metrics["avg_makespan_us"]
            for p in ("constant", "bursty")]
    constant, bursty, violations = out.claims
    assert constant.text.startswith("crossbar/constant (kappa=")
    assert "-> ab wins" in constant.text
    assert bursty.text.startswith("crossbar/bursty (kappa=")
    assert constant.holds and bursty.holds and violations.holds
    # No invariant violations anywhere in the sweep.
    assert all((r.invariant_report or {}).get("violation_count", 0) == 0
               for r in out.points)
