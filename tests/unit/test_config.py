"""Unit tests for configuration and cluster presets."""

from dataclasses import replace

import pytest

from repro.config import (MACHINE_P3_700, MACHINE_P3_1000,
                          MACHINE_P3_1000_L92, AbParams, ClusterConfig,
                          NicParams, NoiseParams, NO_NOISE,
                          homogeneous_cluster, interlaced_roster,
                          paper_cluster, quiet_cluster)
from repro.errors import ConfigError


def test_machine_scales():
    assert MACHINE_P3_1000.host_scale() == pytest.approx(1.0)
    assert MACHINE_P3_700.host_scale() == pytest.approx(1000 / 700)
    assert MACHINE_P3_1000_L92.lanai_scale() == pytest.approx(1.0)
    assert MACHINE_P3_700.lanai_scale() == pytest.approx(200 / 133)


def test_interlaced_roster_alternates_classes():
    roster = interlaced_roster(32)
    assert len(roster) == 32
    assert all(r is MACHINE_P3_700 for r in roster[::2])
    assert all(r.cpu_mhz == 1000 for r in roster[1::2])
    # exactly four LANai 9.2 cards, as on the real cluster
    assert sum(1 for r in roster if r is MACHINE_P3_1000_L92) == 4


def test_interlaced_roster_prefix_is_balanced():
    """The paper interlaces so every prefix is a balanced mix."""
    roster = interlaced_roster(32)
    for size in (2, 4, 8, 16):
        prefix = roster[:size]
        slow = sum(1 for r in prefix if r.cpu_mhz == 700)
        assert slow == size // 2


def test_interlaced_roster_bounds():
    with pytest.raises(ConfigError):
        interlaced_roster(0)
    with pytest.raises(ConfigError):
        interlaced_roster(33)


def test_paper_cluster_size_and_seed():
    cfg = paper_cluster(16, seed=99)
    assert cfg.size == 16
    assert cfg.seed == 99


def test_homogeneous_cluster_single_class():
    cfg = homogeneous_cluster(16)
    assert {m.name for m in cfg.machines} == {MACHINE_P3_700.name}


def test_quiet_cluster_is_noise_free():
    cfg = quiet_cluster(4)
    assert cfg.noise == NO_NOISE
    assert cfg.noise.spike_prob == 0.0


def test_with_helpers_return_new_configs():
    cfg = paper_cluster(4)
    ab = AbParams(exit_delay_policy="log")
    nic = NicParams(signal_overhead_us=20.0)
    assert replace(cfg, ab=ab).ab is ab
    assert replace(cfg, nic=nic).nic is nic
    assert replace(cfg, seed=5).seed == 5
    assert cfg.ab is not ab  # original untouched (frozen dataclasses)
    with pytest.raises(ConfigError):  # replace() re-runs __post_init__
        replace(cfg, noise=NoiseParams(spike_prob=1.5))


def test_noise_validation():
    with pytest.raises(ConfigError):
        NoiseParams(spike_prob=1.5).validate()
    with pytest.raises(ConfigError):
        NoiseParams(spike_min_us=50.0, spike_max_us=10.0).validate()


def test_empty_cluster_rejected():
    with pytest.raises(ConfigError):
        ClusterConfig(machines=())
