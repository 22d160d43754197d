"""The paper's testbed interconnect: one full-crossbar cut-through switch.

Every host has a dedicated port on a single ``nodes``-port crossbar, so a
packet makes exactly one hop and contention exists only at the output
port feeding the destination.  This is the refactored original fabric;
its timing is bit-identical to the pre-registry code.
"""

from __future__ import annotations

from ..network.switch import CrossbarSwitch
from .base import Topology, register_topology


@register_topology("crossbar")
class CrossbarTopology(Topology):
    """Single full crossbar — one hop, output-port contention only."""

    def __init__(self, params, nodes: int):
        super().__init__(params, nodes)
        self.switch = CrossbarSwitch(nodes)
        self.switches = [self.switch]

    def _compute_route(self, src: int, dst: int):
        return (self.switch.out(dst),)
