"""Pluggable interconnect topologies.

A :class:`Topology` owns every switch and link between the hosts' NICs
and describes a packet's path as the ordered tuple of output
:class:`~repro.network.link.Link` s it crosses.  The shared
:meth:`Topology.transit` method charges the cut-through timing model
along that path:

* the source host's TX link serializes the frame (head leaves at the
  link-grant time ``start``),
* each hop charges the switch's forwarding latency once and serializes
  the frame on the chosen output link; the *head* of the frame advances
  to the next hop as soon as that hop granted its output port
  (cut-through: no store-and-forward of the full frame),
* the frame arrives one cable latency after the final hop finishes
  draining.

For a single-crossbar route this reproduces the original
``Fabric.inject`` arithmetic operation for operation, so the default
configuration stays bit-identical.

Routes must be a *deterministic pure function of (src, dst)* — never of
load or time.  The fabric's per-(src, dst) FIFO guarantee (paper
Sec. IV-D; MPI's non-overtaking rule depends on it) relies on consecutive
packets of a pair sharing one path: each shared resource (host TX link,
switch output link) is itself FIFO, and a fixed path composes those into
an end-to-end FIFO order.  Adaptive per-packet routing would break that;
implement it only together with a reorder buffer at the sink.

That purity is also what makes **compiled routes** sound:
:meth:`Topology.route` computes a pair's path once and keeps it as an
immutable tuple of links, so routing is one dict lookup per packet after
the pair's first.  Subclasses implement :meth:`Topology._compute_route`;
the cache lives behind ``route()`` so every consumer (the fabric's transit
path, diagnostics, tests) shares it.  A topology whose routes depended on
load or time would break the cache *and* the FIFO guarantee — the same
contract protects both.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..config import check_name
from ..network.link import Link
from ..network.switch import CrossbarSwitch


class Topology:
    """Interconnect between ``nodes`` hosts (see module docstring)."""

    name = "abstract"

    def __init__(self, params, nodes: int):
        if params.link_bytes_per_us <= 0:
            raise ValueError("link bandwidth must be positive")
        self.params = params
        self.nodes = nodes
        #: per-host NIC transmit link (serialization at the source)
        self.host_links = [Link() for _ in range(nodes)]
        #: every switch in the fabric, for counters/utilization scans
        self.switches: list[CrossbarSwitch] = []
        #: total switch traversals charged (per-hop counter)
        self.hops = 0
        #: (src, dst) -> the output links the pair's packets cross (see
        #: module docstring); one entry per pair that ever routed a
        #: packet, never invalidated — routes are pure functions of the
        #: pair by contract.
        self._route_cache: dict[tuple[int, int], tuple[Link, ...]] = {}

    def route(self, src: int, dst: int) -> tuple[Link, ...]:
        """Ordered switch output links from ``src``'s NIC to ``dst``
        (memoized; see :meth:`_compute_route` for the actual routing)."""
        key = (src, dst)
        links = self._route_cache.get(key)
        if links is None:
            links = self._route_cache[key] = tuple(
                self._compute_route(src, dst))
        return links

    def _compute_route(self, src: int, dst: int) -> Iterable[Link]:
        """The output links of one pair's path, in order (subclass
        responsibility; ``CrossbarSwitch.out`` names one hop).  Must be a
        deterministic pure function of ``(src, dst)``."""
        raise NotImplementedError

    def transit(self, at: float, src: int, dst: int, wire_bytes: int) -> float:
        """Charge the full path and return the arrival time at ``dst``.

        One pass over the compiled route: every link runs at the same
        rate, so the serialization time is computed once per packet, and
        each hop grants its link at ``max(head + switch latency,
        free_at)`` — the float operations of a per-hop model, in its
        order, so arrivals are bit-identical to one."""
        if wire_bytes < 0:
            raise ValueError("negative packet size")
        links = self._route_cache.get((src, dst))
        if links is None:
            links = self.route(src, dst)
        params = self.params
        serialize = wire_bytes / params.link_bytes_per_us
        cable = params.cable_latency_us
        latency = params.switch_latency_us
        link = self.host_links[src]
        free = link.free_at
        start = free if free > at else at
        finish = link.free_at = start + serialize
        link.busy_time += finish - start
        head = start + cable
        for link in links:
            at = head + latency
            free = link.free_at
            start = free if free > at else at
            finish = link.free_at = start + serialize
            link.busy_time += finish - start
            head = start + cable
        self.hops += len(links)
        return finish + cable

    def counters(self) -> dict:
        """Per-hop counters merged into ``Simulator.counters()``; every
        hop is one switch forwarding, so the two counts are one number."""
        return {
            "net_hops": self.hops,
            "net_switch_forwarded": self.hops,
            "net_route_cache_entries": len(self._route_cache),
        }

    def max_port_utilization(self, horizon: float) -> float:
        """Hottest output port across the fabric (network hot spot)."""
        best = 0.0
        for sw in self.switches:
            util = sw.port_utilization(horizon)
            if util:
                best = max(best, max(util))
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology {self.name} nodes={self.nodes}>"


#: Registry: ``NetParams.topology`` name -> Topology subclass.
TOPOLOGIES: dict[str, Callable[..., Topology]] = {}


def register_topology(name: str):
    """Class decorator adding a topology to the registry."""
    def deco(cls):
        cls.name = name
        TOPOLOGIES[name] = cls
        return cls
    return deco


def make_topology(params, nodes: int) -> Topology:
    """Instantiate the topology selected by ``params.topology``."""
    name = getattr(params, "topology", "crossbar")
    check_name("topology", name, TOPOLOGIES)
    return TOPOLOGIES[name](params, nodes)
