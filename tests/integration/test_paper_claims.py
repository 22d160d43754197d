"""Direct executable checks of the paper's remaining prose claims that no
other test pins down."""

import numpy as np
import pytest

from repro import MpiBuild, homogeneous_cluster, paper_cluster
from repro.bench.cpu_util import cpu_util_benchmark
from repro.bench.latency import latency_benchmark
from repro.config import MACHINE_P3_700, MACHINE_P3_1000


def test_heterogeneous_matches_homogeneous_up_to_16_nodes():
    """Sec. VI: "Although our 32-node cluster is heterogeneous, we compared
    it to both of the groups of homogeneous machines separately for system
    sizes up to 16 nodes and observed nearly identical results."""
    for size in (4, 8, 16):
        het = cpu_util_benchmark(paper_cluster(size, seed=2),
                                 MpiBuild.DEFAULT, elements=4,
                                 max_skew_us=500.0, iterations=30)
        hom_slow = cpu_util_benchmark(
            homogeneous_cluster(size, machine=MACHINE_P3_700, seed=2),
            MpiBuild.DEFAULT, elements=4, max_skew_us=500.0, iterations=30)
        hom_fast = cpu_util_benchmark(
            homogeneous_cluster(size, machine=MACHINE_P3_1000, seed=2),
            MpiBuild.DEFAULT, elements=4, max_skew_us=500.0, iterations=30)
        # "nearly identical": within 15% of each other
        for other in (hom_slow, hom_fast):
            ratio = het.avg_util_us / other.avg_util_us
            assert 0.85 < ratio < 1.18, (size, het.avg_util_us,
                                         other.avg_util_us)


def test_pci_and_nic_differences_negligible_for_small_messages():
    """Sec. VI: "The differences in PCI and NIC capabilities are not much
    of a factor either, as our reduction operations involve fairly small
    amounts of data."""
    from repro.bench.latency import measure_one_way
    # one-way latency between the two machine classes differs by < 2 us
    # for single-double messages
    slow_pair = measure_one_way(homogeneous_cluster(4,
                                                    machine=MACHINE_P3_700,
                                                    seed=1), 0, 1)
    fast_pair = measure_one_way(homogeneous_cluster(4,
                                                    machine=MACHINE_P3_1000,
                                                    seed=1), 0, 1)
    assert abs(slow_pair - fast_pair) < 2.0


def test_moody_motivation_small_reductions_benefit_most():
    """Sec. VI-A closes by noting (citing Moody et al.) that 95% of real
    reductions use <= 3 elements — and that the factor is greatest exactly
    there.  Verify the 1-3 element regime beats the 128-element one."""
    cfg = paper_cluster(16, seed=2)
    f = {}
    for elements in (2, 128):
        nab = cpu_util_benchmark(cfg, MpiBuild.DEFAULT, elements=elements,
                                 max_skew_us=1000.0, iterations=30)
        ab = cpu_util_benchmark(cfg, MpiBuild.AB, elements=elements,
                                max_skew_us=1000.0, iterations=30)
        f[elements] = nab.avg_util_us / ab.avg_util_us
    assert f[2] > f[128]


def test_internal_nodes_are_the_beneficiaries():
    """Sec. II: "The processes that can benefit from such enhancements are
    the internal ones" — per-node utilization deltas must concentrate on
    internal ranks."""
    cfg = paper_cluster(8, seed=2)
    nab = cpu_util_benchmark(cfg, MpiBuild.DEFAULT, elements=4,
                             max_skew_us=800.0, iterations=40)
    ab = cpu_util_benchmark(cfg, MpiBuild.AB, elements=4,
                            max_skew_us=800.0, iterations=40)
    delta = nab.per_node_util_us - ab.per_node_util_us
    internal = [2, 4, 6]
    leaves = [1, 3, 5, 7]
    assert min(delta[i] for i in internal) > max(delta[l] for l in leaves)
    # and the root gains nothing comparable (it cannot bypass)
    assert delta[0] < np.mean([delta[i] for i in internal])


def test_skew_increases_latency_but_ab_recovers_cpu():
    """Sec. VI: "Skew will inevitably increase the overall latency, but if
    we can reduce the CPU utilization, additional computation may be
    performed while the reduction completes asynchronously."""
    cfg = paper_cluster(8, seed=2)
    # total wall time for a skewed reduction is similar in both builds...
    ab = cpu_util_benchmark(cfg, MpiBuild.AB, elements=4,
                            max_skew_us=1000.0, iterations=30)
    nab = cpu_util_benchmark(cfg, MpiBuild.DEFAULT, elements=4,
                             max_skew_us=1000.0, iterations=30)
    # ...but the CPU the application loses to the reduction is not.
    assert nab.avg_util_us > 2.0 * ab.avg_util_us
