"""Smoke tests for the scale and extensions experiment drivers, plus the
extrapolated-cluster preset and the nicred bench protocols."""

import pytest

from repro.config import (MACHINE_P3_700, extrapolated_cluster,
                          interlaced_roster, paper_cluster)
from repro.bench.nicred import nicred_cpu_util, nicred_latency
from repro.errors import ConfigError
from repro.experiments import extensions, scale


def test_extrapolated_cluster_tiles_the_mix():
    cfg = extrapolated_cluster(64)
    assert cfg.size == 64
    base = interlaced_roster(32)
    assert cfg.machines[:32] == base
    assert cfg.machines[32:] == base
    with pytest.raises(ConfigError):
        extrapolated_cluster(0)


def test_extrapolated_prefix_matches_paper_cluster():
    assert extrapolated_cluster(32).machines == paper_cluster(32).machines


def test_scale_driver_small():
    out = scale.run(sizes=(8, 24), iterations=8, seed=1)
    factors = out.tables[0]._find("factor").values
    assert len(factors) == 2
    assert factors[1] > factors[0]
    assert out.claims[0].holds          # the factor keeps increasing


def test_nicred_cpu_util_protocol():
    util = nicred_cpu_util(paper_cluster(8, seed=1), elements=4,
                           max_skew_us=500.0, iterations=10)
    assert 0.0 < util < 200.0


def test_nicred_latency_protocol():
    lat_small = nicred_latency(paper_cluster(8, seed=1), elements=1,
                               iterations=10)
    lat_big = nicred_latency(paper_cluster(8, seed=1), elements=512,
                             iterations=10)
    assert lat_big > lat_small


def test_extensions_pipelined_cg_line():
    line = extensions.run_pipelined_cg(size=8, iterations=6, seed=1)
    assert "pipelined CG" in line
    assert "x)" in line
