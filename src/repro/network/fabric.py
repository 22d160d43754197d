"""Fabric: wires host NICs through a pluggable interconnect topology.

Responsibilities:

* compute, for every packet, the time its last byte arrives at the
  destination NIC by delegating the hop-by-hop cut-through timing to the
  configured :class:`repro.topo.Topology` (``NetParams.topology``; the
  default single crossbar is bit-identical to the pre-registry fabric);
* enforce **per-(source, destination) FIFO ordering** — Myrinet/GM delivers
  in order between a pair of endpoints (paper Sec. IV-D), and MPI's
  non-overtaking rule and the root's in-order receive of segments rely on
  it; topologies keep routes deterministic per pair so multi-hop paths
  compose into the same guarantee, and the runtime invariant monitor
  (INV-FIFO) checks it on every delivery;
* invoke a delivery callback registered by the destination NIC;
* arbitrate same-instant port contention deterministically: injections
  are buffered per simulation instant and granted links at the end of the
  instant in sorted ``(src, dst)`` order (stable, so per-pair FIFO is the
  injection order).  Without this, which of two simultaneous senders wins
  a shared switch port — and therefore every downstream queueing delay —
  would depend on the arbitrary event tiebreak, a schedule race the
  perturbation harness (:mod:`repro.analysis.races`) flags.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from ..config import NetParams
from ..sim.events import PRIORITY_ARBITRATE

DeliveryFn = Callable[[object, float], None]


class Fabric:
    """The cluster interconnect."""

    #: Minimal spacing used to enforce FIFO between same-pair packets that
    #: would otherwise compute identical delivery times (at least one ulp:
    #: from 2**24 us on, half an ulp exceeds it and ``prev + 1e-9 == prev``).
    FIFO_EPSILON = 1e-9

    def __init__(self, sim, params: NetParams, nodes: int, rng=None):
        if nodes < 1:
            raise ValueError("fabric needs at least one node")
        if params.drop_prob > 0.0 and rng is None:
            raise ValueError("a lossy fabric needs an RNG for drop draws")
        self.sim = sim
        self.params = params
        self.nodes = nodes
        self.rng = rng
        self.packets_dropped = 0
        # Imported here: repro.topo builds on repro.network's Link/switch
        # primitives, so a module-level import would be circular.
        from ..topo import make_topology
        self.topology = make_topology(params, nodes)
        #: invariant monitor hook (set by InvariantMonitor.attach)
        self.monitor = None
        #: fault-injection hooks (set by repro.faults injectors); both are
        #: None on a fault-free fabric and never invoked.
        self.drop_hook = None
        self.transit_penalty = None
        self._sinks: list[Optional[DeliveryFn]] = [None] * nodes
        self._last_delivery: dict[tuple[int, int], float] = {}
        self.packets_delivered = 0
        self.bytes_delivered = 0
        #: Injections buffered during the current instant, granted links
        #: by :meth:`_arbitrate` in sorted order (see module doc).
        self._pending: list[tuple[object, int, int, float]] = []
        self._arbitrate_scheduled = False

    def attach(self, node_id: int, sink: DeliveryFn) -> None:
        """Register the destination NIC's packet-arrival callback."""
        if self._sinks[node_id] is not None:
            raise ValueError(f"node {node_id} already attached")
        self._sinks[node_id] = sink

    def inject(self, packet, src: int, dst: int, at: float) -> None:
        """Send ``packet`` from node ``src`` to node ``dst``, first byte
        hitting the wire no earlier than ``at``.

        The transit itself is computed at the end of the current instant
        (the ``PRIORITY_ARBITRATE`` event class) so same-instant port
        contention resolves in a schedule-independent order; the
        destination sink is invoked at the computed arrival time with
        ``(packet, arrival)``.
        """
        if src == dst:
            raise ValueError("loopback traffic bypasses the fabric")
        if self._sinks[dst] is None:
            raise RuntimeError(f"no NIC attached at node {dst}")
        self._pending.append((packet, src, dst, at))
        if not self._arbitrate_scheduled:
            self._arbitrate_scheduled = True
            self.sim.at(self.sim.now, self._arbitrate,
                        priority=PRIORITY_ARBITRATE)

    def _arbitrate(self) -> None:
        """Grant links to every injection of the instant, in sorted
        ``(src, dst)`` order.  The sort is stable, so packets of one pair
        keep their injection order (per-pair FIFO); across pairs the
        arbitration order — who wins a contended port, whose drop draw
        comes first on a lossy fabric — is a pure function of the traffic,
        never of the event tiebreak."""
        self._arbitrate_scheduled = False
        batch = self._pending
        self._pending = []
        if len(batch) > 1:  # the common instant carries one packet
            batch.sort(key=lambda entry: (entry[1], entry[2]))
        for packet, src, dst, at in batch:
            self._transit(packet, src, dst, at)

    def _transit(self, packet, src: int, dst: int, at: float) -> float:
        sink = self._sinks[dst]
        wire_bytes = packet.wire_bytes(self.params.header_bytes)
        # Hop-by-hop cut-through timing along the topology's route.
        arrival = self.topology.transit(at, src, dst, wire_bytes)
        # link_degrade penalty lands before the FIFO clamp so the clamp
        # still guarantees monotone per-pair delivery (INV-FIFO holds).
        if self.transit_penalty is not None:
            arrival += self.transit_penalty(at, src, dst, wire_bytes)

        # Fault injection: the bits were clocked onto the wire (occupancy
        # above stands) but never reach the destination.
        if (self.params.drop_prob > 0.0 and
                float(self.rng.random()) < self.params.drop_prob):
            self.packets_dropped += 1
            return arrival
        if self.drop_hook is not None and self.drop_hook(packet, src, dst):
            self.packets_dropped += 1
            return arrival

        # Per-pair FIFO: never deliver packet k+1 at or before packet k.
        key = (src, dst)
        prev = self._last_delivery.get(key)
        if prev is not None and arrival <= prev:
            arrival = max(prev + self.FIFO_EPSILON,
                          math.nextafter(prev, math.inf))
        self._last_delivery[key] = arrival

        if self.monitor is not None:
            self.monitor.on_delivery(src, dst, arrival, self.sim.now)
        self.packets_delivered += 1
        self.bytes_delivered += wire_bytes
        self.sim.at(arrival, sink, packet, arrival)
        return arrival

    def counters(self) -> dict:
        """Network counters merged into ``Simulator.counters()`` so
        BENCH_*.json captures hot spots, not just event/op counts."""
        out = {
            "net_packets_delivered": self.packets_delivered,
            "net_bytes_delivered": self.bytes_delivered,
            "net_packets_dropped": self.packets_dropped,
            "net_max_port_utilization":
                self.topology.max_port_utilization(self.sim.now),
        }
        out.update(self.topology.counters())
        return out
