"""Coverage for the benchmark-side skew model and protocol details not
exercised elsewhere."""

import numpy as np
import pytest

from repro import MpiBuild, NO_NOISE, NoiseParams, paper_cluster
from repro.bench.cpu_util import cpu_util_benchmark
from repro.bench.latency import latency_benchmark
from repro.bench.skew import SkewModel, conservative_latency_estimate
from repro.sim.random import RngStreams


def test_conservative_estimate_scales_with_size_and_elements():
    small = conservative_latency_estimate(2, 1)
    deep = conservative_latency_estimate(32, 1)
    fat = conservative_latency_estimate(32, 4096)
    assert deep > small
    assert fat > deep


def test_skew_model_rejects_negative():
    with pytest.raises(ValueError):
        SkewModel(RngStreams(0), NO_NOISE, -1.0)


def test_noise_delay_zero_when_disabled():
    model = SkewModel(RngStreams(0), NO_NOISE, 0.0)
    assert all(model.noise_delay(n, i) == 0.0
               for n in range(4) for i in range(5))


def test_per_node_streams_are_independent():
    model = SkewModel(RngStreams(5), NoiseParams(), 1000.0)
    a = [model.skew_delay(0, i) for i in range(5)]
    # draws for node 1 unaffected by node 0's consumption
    fresh = SkewModel(RngStreams(5), NoiseParams(), 1000.0)
    b_after = [model.skew_delay(1, i) for i in range(5)]
    b_fresh = [fresh.skew_delay(1, i) for i in range(5)]
    assert b_after == b_fresh
    assert a != b_after


def test_cpu_util_rejects_zero_iterations():
    with pytest.raises(ValueError):
        cpu_util_benchmark(paper_cluster(2), MpiBuild.DEFAULT, iterations=0)


def test_cpu_util_custom_catchup():
    r = cpu_util_benchmark(paper_cluster(4, seed=1), MpiBuild.DEFAULT,
                           elements=4, max_skew_us=100.0, iterations=8,
                           catchup_us=500.0)
    assert r.avg_util_us > 0.0


def test_latency_bench_needs_two_nodes():
    with pytest.raises(ValueError):
        latency_benchmark(paper_cluster(1), MpiBuild.DEFAULT)


def test_latency_median_reported():
    r = latency_benchmark(paper_cluster(4, seed=1), MpiBuild.DEFAULT,
                          elements=1, iterations=15)
    assert r.median_latency_us > 0.0
    assert abs(r.median_latency_us - r.avg_latency_us) < r.avg_latency_us


def test_last_node_is_deepest():
    r = latency_benchmark(paper_cluster(8, seed=1), MpiBuild.DEFAULT,
                          elements=1, iterations=5)
    assert r.last_node == 7     # rel 7 has depth 3 in the 8-rank tree
