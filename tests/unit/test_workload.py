"""Unit tests for repro.workload: params validation, pattern generators,
the ArrivalTrace container, and the WorkloadModel oracle/counters."""

import math
from dataclasses import replace

import pytest

from repro.config import (ConfigError, WORKLOAD_PATTERNS, WorkloadParams,
                          quiet_cluster)
from repro.sim.random import RngStreams
from repro.workload import (ArrivalTrace, PATTERNS, WorkloadError,
                            WorkloadModel, generate_trace, metrics)


# ---------------------------------------------------------------------------
# WorkloadParams config block


def test_default_params_disarmed():
    p = WorkloadParams()
    assert p.pattern == "none"
    assert not p.armed
    p.validate()


@pytest.mark.parametrize("pattern", WORKLOAD_PATTERNS)
def test_every_listed_pattern_validates(pattern):
    trace = ((1.0, 2.0),) if pattern == "trace_replay" else ()
    p = WorkloadParams(pattern=pattern, scale_us=10.0, trace=trace)
    p.validate()
    assert p.armed == (pattern != "none")


def test_registry_covers_every_armed_pattern():
    assert set(PATTERNS) == set(WORKLOAD_PATTERNS) - {"none"}


@pytest.mark.parametrize("kwargs", [
    {"pattern": "sawtooth"},
    {"scale_us": -1.0},
    {"jitter_us": -0.5},
    {"pattern": "bursty", "straggler_frac": 0.0},
    {"pattern": "bursty", "straggler_frac": 1.5},
    {"pattern": "bursty", "straggler_groups": 0},
    {"pattern": "compute_coupled", "compute_sigma": 0.0},
    {"pattern": "trace_replay"},                       # empty trace
    {"pattern": "trace_replay", "trace": ((1.0,), ())},  # empty row
    {"pattern": "trace_replay", "trace": ((1.0, 2.0), (3.0,))},  # ragged
    {"pattern": "trace_replay", "trace": ((1.0, -2.0),)},  # negative
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ConfigError):
        WorkloadParams(**kwargs).validate()


def test_trace_lists_coerced_to_tuples():
    p = WorkloadParams(pattern="trace_replay", trace=[[1.0, 2.0], [3.0, 4.0]])
    assert p.trace == ((1.0, 2.0), (3.0, 4.0))
    hash(p)  # stays hashable for frozen-config use


def test_cluster_config_validates_workload():
    with pytest.raises(ConfigError):
        replace(quiet_cluster(4), workload=WorkloadParams(pattern="bogus"))


# ---------------------------------------------------------------------------
# ArrivalTrace


def test_trace_accessors_and_cycling():
    t = ArrivalTrace(delays=((5.0, 0.0, 3.0), (1.0, 1.0, 9.0)))
    assert t.nranks == 3 and t.iterations == 2
    assert t.delay(2, 0) == 3.0
    assert t.delay(0, 2) == 5.0          # rows cycle
    assert t.order(0) == (1, 2, 0)
    assert t.spread(0) == 5.0
    assert t.spread(1) == 8.0


def test_trace_order_ties_break_by_rank():
    t = ArrivalTrace(delays=((2.0, 2.0, 1.0),))
    assert t.order(0) == (2, 0, 1)


@pytest.mark.parametrize("delays", [
    (), ((),), ((1.0, 2.0), (3.0,)), ((1.0, -1.0),),
    ((1.0, float("nan")),),
])
def test_trace_rejects_malformed_delays(delays):
    with pytest.raises(WorkloadError):
        ArrivalTrace(delays=delays)


def test_trace_json_round_trip_byte_stable():
    t = ArrivalTrace(delays=((0.5, 12.25), (3.0, 0.0)))
    wire = t.to_json()
    again = ArrivalTrace.from_json(wire)
    assert again == t
    assert again.to_json() == wire


def test_trace_from_dict_rejects_bad_headers():
    t = ArrivalTrace(delays=((1.0, 2.0),))
    d = t.to_dict()
    with pytest.raises(WorkloadError):
        ArrivalTrace.from_dict({**d, "schema": 99})
    with pytest.raises(WorkloadError):
        ArrivalTrace.from_dict({**d, "nranks": 3})


# ---------------------------------------------------------------------------
# pattern generators


def _params(pattern, **kw):
    return WorkloadParams(pattern=pattern, **kw)


def test_disarmed_generates_all_zero_trace():
    t = generate_trace(WorkloadParams(), 4, 3, RngStreams(7))
    assert t.delays == ((0.0,) * 4,) * 3


def test_constant_pattern_is_flat():
    t = generate_trace(_params("constant", scale_us=42.0), 5, 2,
                       RngStreams(7))
    assert t.delays == ((42.0,) * 5,) * 2
    assert t.spread(0) == 0.0


def test_uniform_random_bounded_and_seeded():
    p = _params("uniform_random", scale_us=100.0)
    a = generate_trace(p, 8, 4, RngStreams(11))
    b = generate_trace(p, 8, 4, RngStreams(11))
    c = generate_trace(p, 8, 4, RngStreams(12))
    assert a == b
    assert a != c
    assert all(0.0 <= d <= 100.0 for row in a.delays for d in row)


def test_uniform_random_per_rank_streams_disjoint():
    # Dropping one rank must not perturb the other ranks' draws.
    p = _params("uniform_random", scale_us=100.0)
    big = generate_trace(p, 8, 3, RngStreams(11))
    small = generate_trace(p, 7, 3, RngStreams(11))
    for it in range(3):
        assert big.delays[it][:7] == small.delays[it]


def test_bursty_straggler_group_dominates():
    p = _params("bursty", scale_us=1000.0, jitter_us=10.0,
                straggler_frac=0.25)
    t = generate_trace(p, 16, 3, RngStreams(3))
    for it in range(3):
        row = t.delays[it]
        stragglers = [r for r in range(16) if row[r] >= 500.0]
        # 25% of 16 ranks in the straggler set, delay >= 0.5 * scale.
        assert len(stragglers) == 4
        assert t.spread(it) >= 490.0  # group delay dwarfs jitter
    # Straggler membership is fixed across iterations (correlated group).
    sets = [frozenset(r for r in range(16) if t.delays[it][r] >= 500.0)
            for it in range(3)]
    assert len(set(sets)) == 1


def test_bursty_groups_share_one_draw():
    p = _params("bursty", scale_us=1000.0, jitter_us=0.0,
                straggler_frac=0.5, straggler_groups=2)
    t = generate_trace(p, 8, 2, RngStreams(5))
    for it in range(2):
        row = t.delays[it]
        group_delays = sorted(set(d for d in row if d > 0.0))
        assert len(group_delays) == 2  # one shared delay per group


def test_compute_coupled_positive_and_scaled():
    p = _params("compute_coupled", scale_us=50.0, compute_sigma=0.5)
    t = generate_trace(p, 6, 4, RngStreams(9))
    assert all(d > 0.0 for row in t.delays for d in row)


def test_trace_replay_cycles_recorded_rows():
    recorded = ((1.0, 2.0), (3.0, 4.0))
    p = _params("trace_replay", trace=recorded)
    t = generate_trace(p, 2, 5, RngStreams(1))
    assert t.delays == (recorded * 3)[:5]


def test_trace_replay_rejects_rank_mismatch():
    p = _params("trace_replay", trace=((1.0, 2.0),))
    with pytest.raises(WorkloadError):
        generate_trace(p, 3, 1, RngStreams(1))


@pytest.mark.parametrize("nranks,iterations", [(0, 1), (1, 0)])
def test_generate_trace_rejects_degenerate_sizes(nranks, iterations):
    with pytest.raises(WorkloadError):
        generate_trace(WorkloadParams(), nranks, iterations, RngStreams(1))


# ---------------------------------------------------------------------------
# metrics


def test_spread_stats_and_kappa():
    t = ArrivalTrace(delays=((0.0, 100.0), (0.0, 300.0)))
    stats = metrics.spread_stats(t)
    assert stats["arrival_spread_min_us"] == 100.0
    assert stats["arrival_spread_max_us"] == 300.0
    assert stats["arrival_spread_mean_us"] == 200.0
    assert metrics.imbalance_kappa(t, 100.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        metrics.imbalance_kappa(t, 0.0)


def test_constant_pattern_kappa_is_zero():
    t = generate_trace(_params("constant", scale_us=80.0), 4, 2,
                       RngStreams(2))
    assert metrics.imbalance_kappa(t, 123.0) == 0.0


# ---------------------------------------------------------------------------
# WorkloadModel


def _model(pattern="uniform_random", **kw):
    kw.setdefault("scale_us", 100.0)
    return WorkloadModel(_params(pattern, **kw), 4, RngStreams(21))


def test_model_requires_prepare():
    m = _model()
    with pytest.raises(WorkloadError):
        m.delay(0, 0)
    with pytest.raises(WorkloadError):
        m.order(0)


def test_model_prepare_idempotent_but_cannot_grow():
    m = _model()
    t = m.prepare(3)
    assert m.prepare(2) is t
    assert m.prepare(3) is t
    with pytest.raises(WorkloadError):
        m.prepare(4)


def test_model_charge_counts_injections():
    m = _model()
    t = m.prepare(2, reference_us=50.0)
    total = 0.0
    for it in range(2):
        for rank in range(4):
            total += m.charge(rank, it)
    c = m.counters()
    assert c["workload_pattern"] == "uniform_random"
    assert c["workload_delays"] == 8
    assert c["workload_delay_us"] == pytest.approx(total)
    assert c["arrival_kappa"] == pytest.approx(
        metrics.imbalance_kappa(t, 50.0))


def test_model_counters_independent_of_charge_order():
    # The sanitizer-relevant property: charging ranks in any interleaving
    # yields bit-identical counters (rank-major recomputation).
    order_a = _model()
    order_b = _model()
    order_a.prepare(2)
    order_b.prepare(2)
    for it in range(2):
        for rank in range(4):
            order_a.charge(rank, it)
    for rank in reversed(range(4)):
        for it in range(2):
            order_b.charge(rank, it)
    assert order_a.counters() == order_b.counters()


def test_model_order_matches_trace():
    m = _model()
    t = m.prepare(3)
    for it in range(3):
        assert m.order(it) == t.order(it)
        assert not math.isnan(t.spread(it))
