"""Pluggable interconnect topologies.

A :class:`Topology` owns every switch and link between the hosts' NICs
and describes a packet's path as an ordered list of ``(switch, out_port)``
hops.  The shared :meth:`Topology.transit` method charges the cut-through
timing model along that path:

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
load or time.  The fabric's per-(src, dst) FIFO guarantee (which the AB
late-message matching depends on, paper Sec. IV-D) relies on consecutive
packets of a pair sharing one path: each shared resource (host TX link,
switch output link) is itself FIFO, and a fixed path composes those into
an end-to-end FIFO order.  Adaptive per-packet routing would break that;
implement it only together with a reorder buffer at the sink.

That purity is also what makes **route caching** sound: :meth:`Topology.route`
memoizes the computed hop list per ``(src, dst)`` pair, so routing is O(1)
per packet after the pair's first packet (the torus walks its whole
dimension-order path per call — dozens of hops at 4096 ranks — and the
per-packet rebuild dominated large-scale profiles).  Subclasses implement
:meth:`Topology._compute_route`; the cache lives behind ``route()`` so
every consumer (the fabric's transit path, diagnostics, tests) shares it.
A topology whose routes depended on load or time would break the cache
*and* the FIFO guarantee — the same contract protects both.
"""

from __future__ import annotations

from typing import Callable

from ..config import check_name
from ..network.link import Link
from ..network.switch import CrossbarSwitch


class Topology:
    """Interconnect between ``nodes`` hosts (see module docstring)."""

    name = "abstract"

    def __init__(self, params, nodes: int):
        self.params = params
        self.nodes = nodes
        #: per-host NIC transmit link (serialization at the source)
        self.host_links = [
            Link(f"host[{n}].tx", params.link_bytes_per_us)
            for n in range(nodes)
        ]
        #: every switch in the fabric, for counters/utilization scans
        self.switches: list[CrossbarSwitch] = []
        #: total switch traversals charged (per-hop counter)
        self.hops = 0
        #: memoized (src, dst) -> hop list (see module docstring); one
        #: entry per pair that ever routed a packet, never invalidated —
        #: routes are pure functions of the pair by contract.
        self._route_cache: dict[tuple[int, int], list] = {}

    def route(self, src: int, dst: int) -> list[tuple[CrossbarSwitch, int]]:
        """Ordered (switch, out_port) hops from ``src``'s NIC to ``dst``
        (memoized; see :meth:`_compute_route` for the actual routing)."""
        key = (src, dst)
        hops = self._route_cache.get(key)
        if hops is None:
            hops = self._route_cache[key] = self._compute_route(src, dst)
        return hops

    def _compute_route(self, src: int,
                       dst: int) -> list[tuple[CrossbarSwitch, int]]:
        """Compute the hop list for one pair (subclass responsibility).
        Must be a deterministic pure function of ``(src, dst)``."""
        raise NotImplementedError

    def transit(self, at: float, src: int, dst: int, wire_bytes: int) -> float:
        """Charge the full path and return the arrival time at ``dst``."""
        start, _ = self.host_links[src].transmit(at, wire_bytes)
        cable = self.params.cable_latency_us
        head = start + cable
        finish = head
        hops = self._route_cache.get((src, dst))
        if hops is None:
            hops = self.route(src, dst)
        for switch, port in hops:
            hop_start, finish = switch.traverse_timed(head, port, wire_bytes)
            head = hop_start + cable
        self.hops += len(hops)
        return finish + cable

    def counters(self) -> dict:
        """Per-hop counters merged into ``Simulator.counters()``."""
        return {
            "net_hops": self.hops,
            "net_switch_forwarded": sum(sw.forwarded for sw in self.switches),
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
