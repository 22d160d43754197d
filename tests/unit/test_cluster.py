"""Tests for cluster assembly and the resolved node cost tables."""

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import NodeCosts
from repro.config import (MACHINE_P3_700, MACHINE_P3_1000, homogeneous_cluster,
                          paper_cluster, quiet_cluster)


def test_cluster_wires_every_node():
    cluster = Cluster(paper_cluster(8))
    assert cluster.size == 8
    for i, node in enumerate(cluster.nodes):
        assert node.id == i
        assert node.nic.node_id == i
        assert node.cpu is node.nic.cpu
        assert node.rng is cluster.rng


def test_tracer_clock_bound():
    cluster = Cluster(quiet_cluster(2))
    cluster.tracer.enabled = True
    cluster.sim.schedule(5.0, lambda: cluster.tracer.emit("tick"))
    cluster.sim.run()
    assert cluster.tracer.records[0]["t"] == 5.0


def test_costs_scale_with_cpu_clock():
    cfg = paper_cluster(2)
    slow = NodeCosts(MACHINE_P3_700, cfg)
    fast = NodeCosts(MACHINE_P3_1000, cfg)
    ratio = 1000 / 700
    assert slow.match_us == pytest.approx(fast.match_us * ratio)
    assert slow.call_overhead_us == pytest.approx(
        fast.call_overhead_us * ratio)
    assert slow.op_us(10) == pytest.approx(fast.op_us(10) * ratio * 600 / 600,
                                           rel=0.5)


def test_copy_cost_follows_memcpy_bandwidth():
    cfg = paper_cluster(2)
    slow = NodeCosts(MACHINE_P3_700, cfg)
    fast = NodeCosts(MACHINE_P3_1000, cfg)
    assert slow.copy_us(400) == pytest.approx(1.0)    # 400 B/us
    assert fast.copy_us(600) == pytest.approx(1.0)    # 600 B/us


def test_ab_costs_resolved():
    cfg = paper_cluster(2)
    costs = NodeCosts(MACHINE_P3_1000, cfg)
    assert costs.ab_hook_us == pytest.approx(cfg.ab.progress_hook_us)
    assert costs.ab_eager_limit_bytes == cfg.ab.eager_limit_bytes


def test_cpu_usage_table_and_signal_totals():
    cluster = Cluster(quiet_cluster(3))
    cluster.nodes[1].cpu.charge(4.0, "poll")
    assert cluster.nodes[1].cpu.usage == {"poll": 4.0}
    assert cluster.nodes[0].cpu.usage == {}
    assert cluster.total_signals() == 0


def test_heterogeneous_nodes_get_their_specs():
    cluster = Cluster(paper_cluster(4))
    assert cluster.nodes[0].spec is MACHINE_P3_700
    assert cluster.nodes[1].spec.cpu_mhz == 1000


def test_homogeneous_cluster_nodes_identical_costs():
    cluster = Cluster(homogeneous_cluster(4))
    base = cluster.nodes[0].costs
    for node in cluster.nodes[1:]:
        assert node.costs.match_us == base.match_us
        assert node.costs.copy_us_per_byte == base.copy_us_per_byte
