"""Compiled routes: cached routes equal fresh routes, and ``transit`` over
them is bit-identical to the hop-by-hop model it replaced.

``Topology.route`` compiles a pair's path once into the tuple of output
links it crosses; that is sound only because routes are pure functions of
the pair (the same contract the fabric's per-pair FIFO guarantee rests on
— see ``repro.topo.base``).  ``Topology.transit`` then walks that tuple
in one inlined loop.  These tests check, on every registered topology:
for *all* pairs the memoized route equals a fresh computation on an
identically-built topology and is one immutable tuple; and for arbitrary
traffic, ``transit`` reproduces :func:`reference_transit` — the per-link
``transmit`` / per-switch ``traverse_timed`` arithmetic — bit for bit, in
every arrival and in every link's state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import NetParams
from repro.network.link import Link
from repro.topo import make_topology
from repro.topo.base import TOPOLOGIES

#: (params, nodes) per case — small enough for exhaustive all-pairs
#: checks, big enough for multi-hop paths (3-hop fat-tree, wrap-around
#: torus); every registered topology has at least one.
CASES = {
    "crossbar": (NetParams(topology="crossbar"), 8),
    "fattree": (NetParams(topology="fattree", fattree_hosts_per_switch=4,
                          fattree_oversubscription=2.0), 16),
    "fattree_1to1": (NetParams(topology="fattree",
                               fattree_hosts_per_switch=4), 16),
    "fattree_4to1": (NetParams(topology="fattree", fattree_hosts_per_switch=4,
                               fattree_oversubscription=4.0), 16),
    "torus": (NetParams(topology="torus", torus_width=4), 12),
    "torus_auto": (NetParams(topology="torus"), 12),
}


def every_link(topo) -> list[Link]:
    """Host TX links, then each switch's output links, in build order."""
    return topo.host_links + [link for sw in topo.switches
                              for link in sw.out_links]


def positions(topo, links) -> list[int]:
    """Where ``links`` sit in :func:`every_link` — structure, not identity,
    so two identically-built topologies compare equal."""
    index = {id(link): i for i, link in enumerate(every_link(topo))}
    return [index[id(link)] for link in links]


# ---------------------------------------------------------------------------
# the hop-by-hop reference: Link.transmit / CrossbarSwitch.traverse_timed
# ---------------------------------------------------------------------------

def reference_transmit(link: Link, at: float, nbytes: int,
                       bytes_per_us: float) -> tuple[float, float]:
    """Occupy ``link`` for one packet: ``(start, finish)``."""
    start = max(at, link.free_at)
    finish = start + nbytes / bytes_per_us
    link.free_at = finish
    link.busy_time += finish - start
    return start, finish


def reference_traverse(link: Link, latency_us: float, at: float, nbytes: int,
                       bytes_per_us: float) -> tuple[float, float]:
    """A packet head reaching a switch at ``at``, leaving on ``link``."""
    return reference_transmit(link, at + latency_us, nbytes, bytes_per_us)


def reference_transit(topo, at: float, src: int, dst: int,
                      wire_bytes: int) -> float:
    params = topo.params
    rate = params.link_bytes_per_us
    start, _ = reference_transmit(topo.host_links[src], at, wire_bytes, rate)
    cable = params.cable_latency_us
    head = start + cable
    finish = head
    route = topo.route(src, dst)
    for link in route:
        hop_start, finish = reference_traverse(
            link, params.switch_latency_us, head, wire_bytes, rate)
        head = hop_start + cable
    topo.hops += len(route)
    return finish + cable


# ---------------------------------------------------------------------------
# route(): one immutable structure per pair
# ---------------------------------------------------------------------------

def test_every_registered_topology_has_a_case():
    assert {params.topology for params, _ in CASES.values()} == \
        set(TOPOLOGIES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cached_route_equals_fresh_route_all_pairs(name):
    params, nodes = CASES[name]
    warm = make_topology(params, nodes)
    fresh = make_topology(params, nodes)
    for src in range(nodes):
        for dst in range(nodes):
            if src == dst:
                continue
            cached = warm.route(src, dst)
            assert warm.route(src, dst) is cached
            direct = tuple(fresh._compute_route(src, dst))
            assert positions(warm, cached) == positions(fresh, direct)
    assert warm.counters()["net_route_cache_entries"] == \
        nodes * (nodes - 1)
    assert all(type(links) is tuple and links
               and all(type(link) is Link for link in links)
               for links in warm._route_cache.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_route_is_an_immutable_tuple(name):
    """A caller cannot corrupt a pair's later packets through ``route``."""
    params, nodes = CASES[name]
    topo = make_topology(params, nodes)
    route = topo.route(0, nodes - 1)
    assert topo.route(0, nodes - 1) is route
    with pytest.raises(AttributeError):
        route.append(topo.host_links[0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_transit_uses_and_never_mutates_cached_routes(name):
    params, nodes = CASES[name]
    topo = make_topology(params, nodes)
    before = {(s, d): topo.route(s, d)
              for s in range(nodes) for d in range(nodes) if s != d}
    snapshot = {pair: positions(topo, links)
                for pair, links in before.items()}
    for src, dst in before:
        topo.transit(0.0, src, dst, 64)
    for pair, links in before.items():
        assert topo.route(*pair) is links
        assert positions(topo, links) == snapshot[pair]


# ---------------------------------------------------------------------------
# transit(): bit-identical to the reference
# ---------------------------------------------------------------------------

def packets(nodes: int):
    """Traffic as (gap before injection, src, dst, wire bytes); gaps of
    zero make same-instant port contention, arbitrary floats make the
    rounding of every sum matter."""
    pair = st.tuples(st.integers(0, nodes - 1),
                     st.integers(0, nodes - 1)).filter(lambda p: p[0] != p[1])
    return st.lists(st.tuples(
        st.one_of(st.just(0.0),
                  st.floats(0.0, 50.0, allow_nan=False)),
        pair, st.integers(0, 9000)), min_size=1, max_size=60)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transit_matches_hop_by_hop_reference(name, data):
    params, nodes = CASES[name]
    traffic = data.draw(packets(nodes))
    topo = make_topology(params, nodes)
    ref = make_topology(params, nodes)
    at = 0.0
    horizon = 0.0
    for gap, (src, dst), wire_bytes in traffic:
        at += gap
        arrival = topo.transit(at, src, dst, wire_bytes)
        expected = reference_transit(ref, at, src, dst, wire_bytes)
        assert arrival.hex() == expected.hex()
        horizon = max(horizon, arrival)
    assert [(link.free_at.hex(), link.busy_time.hex())
            for link in every_link(topo)] == \
        [(link.free_at.hex(), link.busy_time.hex())
         for link in every_link(ref)]
    assert topo.counters()["net_hops"] == ref.hops
    assert topo.max_port_utilization(horizon) == \
        ref.max_port_utilization(horizon)
