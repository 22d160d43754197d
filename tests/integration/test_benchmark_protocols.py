"""Integration tests for the two microbenchmarks and their headline
behaviours — the executable form of the paper's qualitative claims."""

import numpy as np
import pytest

from repro import MpiBuild, NO_NOISE, homogeneous_cluster, paper_cluster
from repro.bench.cpu_util import cpu_util_benchmark
from repro.bench.latency import latency_benchmark, measure_one_way
from repro.errors import ProcessFailed

SEED = 1


# ---------------------------------------------------------------------------
# the accounting cross-check (DESIGN.md §6.3)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [MpiBuild.DEFAULT, MpiBuild.AB])
@pytest.mark.parametrize("skew", [0.0, 500.0])
def test_paper_protocol_equals_direct_accounting_plus_noise(build, skew):
    """With noise disabled, the paper's subtraction protocol and the
    engine's direct CPU accounting measure exactly the same thing."""
    cfg = paper_cluster(8, seed=SEED, noise=NO_NOISE)
    r = cpu_util_benchmark(cfg, build, elements=4, max_skew_us=skew,
                           iterations=25)
    assert r.avg_util_us == pytest.approx(r.direct_avg_util_us, abs=1e-6)


def test_noise_is_the_only_gap_between_protocols():
    cfg = paper_cluster(8, seed=SEED)   # noise on
    r = cpu_util_benchmark(cfg, MpiBuild.DEFAULT, elements=4,
                           max_skew_us=0.0, iterations=40)
    gap = r.avg_util_us - r.direct_avg_util_us
    noise = cfg.noise
    mean_noise = (noise.base_jitter_us / 2 + noise.barrier_jitter_us / 2 +
                  noise.spike_prob * (noise.spike_min_us +
                                      noise.spike_max_us) / 2)
    assert gap == pytest.approx(mean_noise, rel=0.5)
    assert gap > 0.0


# ---------------------------------------------------------------------------
# headline claims with skew (Figs. 6-7)
# ---------------------------------------------------------------------------

def util(build, *, size=16, skew=0.0, elements=4, iterations=30):
    return cpu_util_benchmark(paper_cluster(size, seed=SEED), build,
                              elements=elements, max_skew_us=skew,
                              iterations=iterations)


def test_ab_beats_nab_under_skew():
    nab = util(MpiBuild.DEFAULT, skew=800.0)
    ab = util(MpiBuild.AB, skew=800.0)
    assert nab.avg_util_us / ab.avg_util_us > 2.5


def test_factor_grows_with_skew():
    factors = []
    for skew in (200.0, 1000.0):
        nab = util(MpiBuild.DEFAULT, skew=skew)
        ab = util(MpiBuild.AB, skew=skew)
        factors.append(nab.avg_util_us / ab.avg_util_us)
    assert factors[1] > factors[0]


def test_factor_grows_with_system_size():
    factors = []
    for size in (4, 32):
        nab = util(MpiBuild.DEFAULT, size=size, skew=1000.0)
        ab = util(MpiBuild.AB, size=size, skew=1000.0)
        factors.append(nab.avg_util_us / ab.avg_util_us)
    assert factors[1] > factors[0] + 0.5


def test_factor_greatest_for_small_messages_under_skew():
    f = {}
    for elements in (4, 128):
        nab = util(MpiBuild.DEFAULT, size=32, skew=1000.0, elements=elements)
        ab = util(MpiBuild.AB, size=32, skew=1000.0, elements=elements)
        f[elements] = nab.avg_util_us / ab.avg_util_us
    assert f[4] > f[128]


def test_nab_util_scales_linearly_with_skew():
    utils = [util(MpiBuild.DEFAULT, skew=s).avg_util_us
             for s in (250.0, 500.0, 1000.0)]
    assert utils[0] < utils[1] < utils[2]
    # roughly linear: doubling skew roughly doubles waiting
    assert utils[2] / utils[0] > 2.5


def test_ab_util_nearly_flat_in_skew():
    lo = util(MpiBuild.AB, skew=200.0).avg_util_us
    hi = util(MpiBuild.AB, skew=1000.0).avg_util_us
    assert hi < 2.5 * lo


# ---------------------------------------------------------------------------
# no-skew claims (Fig. 8)
# ---------------------------------------------------------------------------

def test_ab_overhead_dominates_at_small_scale():
    nab = util(MpiBuild.DEFAULT, size=4, iterations=60)
    ab = util(MpiBuild.AB, size=4, iterations=60)
    assert ab.avg_util_us > nab.avg_util_us          # factor < 1


def test_ab_wins_at_full_scale_large_messages():
    nab = util(MpiBuild.DEFAULT, size=32, elements=128, iterations=60)
    ab = util(MpiBuild.AB, size=32, elements=128, iterations=60)
    factor = nab.avg_util_us / ab.avg_util_us
    assert 1.1 < factor < 2.0        # paper: 1.5


# ---------------------------------------------------------------------------
# latency protocol (Figs. 9-10)
# ---------------------------------------------------------------------------

def test_one_way_latency_is_era_plausible():
    one_way = measure_one_way(paper_cluster(8, seed=SEED), 0, 7)
    assert 4.0 < one_way < 15.0      # GM-on-Myrinet-2000 class


def test_latency_grows_with_nodes():
    lat = [latency_benchmark(paper_cluster(n, seed=SEED), MpiBuild.DEFAULT,
                             elements=1, iterations=40).avg_latency_us
           for n in (4, 16)]
    assert lat[1] > lat[0] * 1.5


def test_ab_latency_penalty_appears_at_scale():
    nab = latency_benchmark(paper_cluster(32, seed=SEED), MpiBuild.DEFAULT,
                            elements=1, iterations=40)
    ab = latency_benchmark(paper_cluster(32, seed=SEED), MpiBuild.AB,
                           elements=1, iterations=40)
    assert ab.avg_latency_us > nab.avg_latency_us
    assert ab.avg_latency_us - nab.avg_latency_us < 40.0


def test_latencies_nearly_identical_at_small_scale():
    cfg = homogeneous_cluster(2, seed=SEED)
    nab = latency_benchmark(cfg, MpiBuild.DEFAULT, elements=1, iterations=60)
    ab = latency_benchmark(cfg, MpiBuild.AB, elements=1, iterations=60)
    assert abs(ab.avg_latency_us - nab.avg_latency_us) < 5.0


def test_latency_grows_with_message_size():
    small = latency_benchmark(paper_cluster(16, seed=SEED), MpiBuild.DEFAULT,
                              elements=1, iterations=30).avg_latency_us
    big = latency_benchmark(paper_cluster(16, seed=SEED), MpiBuild.DEFAULT,
                            elements=128, iterations=30).avg_latency_us
    assert big > small * 1.3


def test_benchmark_results_are_reproducible():
    a = util(MpiBuild.AB, skew=300.0, iterations=15)
    b = util(MpiBuild.AB, skew=300.0, iterations=15)
    assert a.avg_util_us == b.avg_util_us
    assert np.array_equal(a.per_node_util_us, b.per_node_util_us)


def test_benchmark_validates_reduction_values():
    r = util(MpiBuild.AB, skew=400.0, iterations=10)
    assert r.checked_reductions == 13   # 10 measured + 3 warmup, all checked


def test_a_root_result_missing_one_rank_is_refused():
    """The checked sums are integers, exact in float64, so the check is
    exact: at 1024 ranks a root result short of rank 1's 2.0 (inside a
    relative tolerance of 1e-5 on 524 800) fails the run."""
    size = 1024
    short = size * (size + 1) / 2 - 2.0

    def short_by_rank_1(mpi):
        def reduce(data):
            yield from mpi.compute(0.0)
            return np.full(data.shape, short) if mpi.rank == 0 else None
        return reduce

    with pytest.raises(ProcessFailed, match="root got 524798.0"):
        cpu_util_benchmark(homogeneous_cluster(size, noise=NO_NOISE),
                           MpiBuild.DEFAULT, iterations=1, warmup=0,
                           collective=short_by_rank_1)
