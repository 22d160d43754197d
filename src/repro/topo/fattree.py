"""Two-level fat-tree (folded Clos) with configurable oversubscription.

Hosts attach to edge switches in blocks of
``NetParams.fattree_hosts_per_switch``; every edge switch has ``up``
uplinks, one to each spine switch, with ``up = round(down /
oversubscription)``.  Oversubscription 1.0 is a full-bisection fat-tree;
2.0 gives edge switches half as many uplinks as host ports, so
cross-edge traffic contends for the thinner spine layer — the knob the
`fig_topo` sweep turns to create network hot spots.

Routing is the standard deterministic up/down: same-edge pairs turn
around at their edge switch (one hop); cross-edge pairs go edge → spine
→ edge (three hops), with the spine chosen by a static hash of
``(src, dst)``.  Static per-pair spine selection keeps every (src, dst)
pair on a single path, preserving the fabric's per-pair FIFO guarantee
(see :mod:`repro.topo.base`).
"""

from __future__ import annotations

from ..network.switch import CrossbarSwitch
from .base import Topology, register_topology


@register_topology("fattree")
class FatTreeTopology(Topology):
    """Two-level folded Clos (see module docstring)."""

    def __init__(self, params, nodes: int):
        super().__init__(params, nodes)
        down = params.fattree_hosts_per_switch
        if down < 1:
            raise ValueError(
                f"fattree_hosts_per_switch must be >= 1, got {down}")
        ratio = params.fattree_oversubscription
        if ratio <= 0:
            raise ValueError(
                f"fattree_oversubscription must be > 0, got {ratio}")
        self.down = down
        self.n_edge = (nodes + down - 1) // down
        self.up = max(1, round(down / ratio))
        # Edge ports: 0..down-1 face hosts, down..down+up-1 face spines.
        self.edge = [CrossbarSwitch(down + self.up)
                     for _ in range(self.n_edge)]
        # Spine ports: one per edge switch (down-links only).
        self.spine = [CrossbarSwitch(self.n_edge)
                      for _ in range(self.up)] if self.n_edge > 1 else []
        self.switches = self.edge + self.spine

    def _compute_route(self, src: int, dst: int):
        es, ed = src // self.down, dst // self.down
        if es == ed:
            return (self.edge[es].out(dst % self.down),)
        s = (src + dst) % self.up
        return (
            self.edge[es].out(self.down + s),
            self.spine[s].out(ed),
            self.edge[ed].out(dst % self.down),
        )
