"""Unit tests for the pluggable topology registry (repro.topo).

Covers the three shipped topologies (crossbar, fat-tree, torus): route
shapes, unloaded cut-through arithmetic, the registry factories, per-hop
counters surfaced through ``Simulator.counters()``, and per-(src, dst)
FIFO preservation on multi-hop paths.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import MpiBuild, quiet_cluster, run_program
from repro.config import MpiParams, NetParams
from repro.mpich.operations import SUM
from repro.network.fabric import Fabric
from repro.sim.simulator import Simulator
from repro.topo import (CrossbarTopology, FatTreeTopology, TOPOLOGIES,
                        TorusTopology, make_topology)

from conftest import contribution, expected_sum


def unloaded_arrival(params: NetParams, wire_bytes: int, hops: int) -> float:
    """Closed form for Topology.transit on an idle fabric: source-link
    serialization + one switch latency per hop + a cable per segment."""
    ser = wire_bytes / params.link_bytes_per_us
    return (ser + hops * params.switch_latency_us
            + (hops + 1) * params.cable_latency_us)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_registry_contents_and_factory():
    assert set(TOPOLOGIES) >= {"crossbar", "fattree", "torus"}
    params = NetParams(topology="fattree")
    assert isinstance(make_topology(params, 8), FatTreeTopology)
    with pytest.raises(ValueError, match="unknown topology"):
        make_topology(NetParams(topology="hypercube"), 8)


# ---------------------------------------------------------------------------
# crossbar: must reproduce the legacy single-switch arithmetic
# ---------------------------------------------------------------------------

def test_crossbar_matches_legacy_fabric_constant():
    params = NetParams()
    topo = CrossbarTopology(params, 4)
    arrival = topo.transit(0.0, 0, 1, 100)
    # 100 wire bytes at 250 B/us + 0.35 switch + 2 x 0.1 cable — the same
    # constant test_network.py pins for Fabric.inject.
    assert arrival == pytest.approx(0.4 + 0.35 + 0.2)
    assert arrival == pytest.approx(unloaded_arrival(params, 100, hops=1))
    assert topo.hops == 1
    assert topo.route(2, 3) == (topo.switch.out_links[3],)


def test_crossbar_counters():
    topo = CrossbarTopology(NetParams(), 4)
    topo.transit(0.0, 0, 1, 100)
    topo.transit(0.0, 2, 3, 100)
    assert topo.counters() == {"net_hops": 2, "net_switch_forwarded": 2,
                               "net_route_cache_entries": 2}


# ---------------------------------------------------------------------------
# fat-tree
# ---------------------------------------------------------------------------

def test_fattree_same_edge_is_single_hop():
    params = NetParams(topology="fattree", fattree_hosts_per_switch=8)
    topo = FatTreeTopology(params, 16)
    assert topo.n_edge == 2 and topo.up == 8
    route = topo.route(0, 3)
    assert route == (topo.edge[0].out_links[3],)
    arrival = topo.transit(0.0, 0, 3, 100)
    assert arrival == pytest.approx(unloaded_arrival(params, 100, hops=1))


def test_fattree_cross_edge_goes_over_a_spine():
    params = NetParams(topology="fattree", fattree_hosts_per_switch=8)
    topo = FatTreeTopology(params, 16)
    route = topo.route(0, 9)
    assert len(route) == 3
    up, across, down = route
    assert up in topo.edge[0].out_links[8:]          # an uplink port
    assert any(across in spine.out_links for spine in topo.spine)
    assert down is topo.edge[1].out_links[1]
    arrival = topo.transit(0.0, 0, 9, 100)
    assert arrival == pytest.approx(unloaded_arrival(params, 100, hops=3))


def test_fattree_oversubscription_thins_the_spine():
    full = FatTreeTopology(
        NetParams(fattree_hosts_per_switch=8,
                  fattree_oversubscription=1.0), 16)
    half = FatTreeTopology(
        NetParams(fattree_hosts_per_switch=8,
                  fattree_oversubscription=2.0), 16)
    assert full.up == 8 and half.up == 4
    assert len(full.spine) == 8 and len(half.spine) == 4


def test_fattree_single_edge_has_no_spine():
    topo = FatTreeTopology(NetParams(fattree_hosts_per_switch=8), 8)
    assert topo.spine == [] and topo.n_edge == 1
    assert len(topo.route(0, 7)) == 1


def test_fattree_rejects_bad_knobs():
    with pytest.raises(ValueError, match="hosts_per_switch"):
        FatTreeTopology(NetParams(fattree_hosts_per_switch=0), 8)
    with pytest.raises(ValueError, match="oversubscription"):
        FatTreeTopology(NetParams(fattree_oversubscription=0.0), 8)


# ---------------------------------------------------------------------------
# torus
# ---------------------------------------------------------------------------

def test_torus_auto_factors_most_square_grid():
    topo = TorusTopology(NetParams(topology="torus"), 8)
    assert (topo.width, topo.height) == (2, 4)
    topo16 = TorusTopology(NetParams(topology="torus"), 16)
    assert (topo16.width, topo16.height) == (4, 4)
    # primes fall back toward a ring
    topo7 = TorusTopology(NetParams(topology="torus"), 7)
    assert (topo7.width, topo7.height) == (1, 7)


def test_torus_explicit_width_must_divide():
    topo = TorusTopology(NetParams(torus_width=4), 8)
    assert (topo.width, topo.height) == (4, 2)
    with pytest.raises(ValueError, match="does not divide"):
        TorusTopology(NetParams(torus_width=3), 8)


def test_torus_dimension_order_and_wraparound():
    params = NetParams(topology="torus", torus_width=4)
    topo = TorusTopology(params, 16)
    # (0,0) -> (1,1): one +X hop, one +Y hop, then eject at the dst router
    route = topo.route(0, 5)
    assert len(route) == 3
    assert route[0] in topo.routers[0].out_links   # X first
    assert route[1] in topo.routers[1].out_links   # then Y
    assert route[-1] is topo.routers[5].out_links[-1]  # eject at destination
    # (0,0) -> (3,0) wraps: one -X hop is shorter than three +X hops
    assert len(topo.route(0, 3)) == 2
    arrival = topo.transit(0.0, 0, 5, 100)
    assert arrival == pytest.approx(unloaded_arrival(params, 100, hops=3))


def test_torus_routes_are_deterministic_per_pair():
    topo = TorusTopology(NetParams(topology="torus"), 16)
    for src, dst in ((0, 15), (3, 12), (7, 8)):
        assert topo.route(src, dst) == topo.route(src, dst)


# ---------------------------------------------------------------------------
# fabric integration: FIFO across hops, counters
# ---------------------------------------------------------------------------

class Tagged:
    def __init__(self, tag, nbytes):
        self.tag = tag
        self.nbytes = nbytes

    def wire_bytes(self, header):
        return self.nbytes + header


@pytest.mark.parametrize("topology", ["fattree", "torus"])
def test_multi_hop_fabric_preserves_per_pair_fifo(topology):
    """A tiny frame sent just after a huge one must not overtake it,
    even across a multi-hop route (paper Sec. IV-D)."""
    params = NetParams(topology=topology, fattree_hosts_per_switch=4)
    sim = Simulator()
    fabric = Fabric(sim, params, 16)
    deliveries = []
    fabric.attach(9, lambda pkt, t: deliveries.append((pkt.tag, t)))
    assert len(fabric.topology.route(0, 9)) >= 3
    fabric.inject(Tagged("big", 5000), 0, 9, 0.0)
    fabric.inject(Tagged("small", 0), 0, 9, 0.1)
    sim.run()
    assert [tag for tag, _ in deliveries] == ["big", "small"]
    assert deliveries[0][1] <= deliveries[1][1]


def test_simulator_merges_counter_sources():
    sim = Simulator()
    sim.add_counter_source(lambda: {"net_hops": 7})
    counters = sim.counters()
    assert counters["net_hops"] == 7
    assert "events" in counters


def test_fabric_counters_include_topology_hops():
    params = NetParams(topology="torus")
    sim = Simulator()
    fabric = Fabric(sim, params, 8)
    fabric.attach(5, lambda *a: None)
    fabric.inject(Tagged("x", 100), 0, 5, 0.0)
    sim.run()
    counters = fabric.counters()
    assert counters["net_packets_delivered"] == 1
    assert counters["net_hops"] == len(fabric.topology.route(0, 5))
    assert counters["net_switch_forwarded"] == counters["net_hops"]
    assert counters["net_max_port_utilization"] > 0.0


# ---------------------------------------------------------------------------
# end-to-end: reductions stay correct on every topology x tree shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topology", ["crossbar", "fattree", "torus"])
@pytest.mark.parametrize("shape,radix", [("binomial", 2), ("knomial", 4),
                                         ("chain", 2), ("bine", 2)])
@pytest.mark.parametrize("build", [MpiBuild.DEFAULT, MpiBuild.AB])
def test_reduce_correct_on_every_topology_and_shape(topology, shape,
                                                    radix, build):
    size, elements = 8, 4
    config = replace(
        quiet_cluster(size),
        net=NetParams(topology=topology, fattree_hosts_per_switch=4),
        mpi=MpiParams(tree_shape=shape, tree_radix=radix))

    def program(mpi):
        data = contribution(mpi.rank, elements)
        result = yield from mpi.reduce(data, op=SUM, root=0)
        yield from mpi.barrier()
        return result

    out = run_program(config, program, build=build)
    assert np.allclose(out.results[0], expected_sum(size, elements))
    counters = out.sim_counters()
    assert counters["net_hops"] >= counters["net_packets_delivered"] > 0
    if topology == "crossbar":
        assert counters["net_hops"] == counters["net_packets_delivered"]
    else:
        assert counters["net_hops"] > counters["net_packets_delivered"]
