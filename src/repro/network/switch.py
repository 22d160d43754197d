"""Cut-through crossbar switch model.

Myrinet-2000 switches are cut-through: a packet's head proceeds to the output
port after only a port-lookup latency, while its tail is still arriving.  We
therefore charge the switch latency once per traversal and model contention
at the *output port* (two packets to the same destination serialize there).
The timing itself lives in :meth:`repro.topo.Topology.transit`; a switch is
the set of output links a route compiles to.
"""

from __future__ import annotations

from .link import Link


class CrossbarSwitch:
    """A single N-port crossbar (the paper's cluster uses one 32-port unit)."""

    def __init__(self, ports: int):
        if ports < 1:
            raise ValueError("switch needs at least one port")
        # Output-port serializers: packet streams converging on one
        # destination contend here.
        self.out_links = [Link() for _ in range(ports)]

    def out(self, port: int) -> Link:
        """The output link behind ``port`` — one hop of a compiled route."""
        if not (0 <= port < len(self.out_links)):
            raise ValueError(
                f"port {port} out of range 0..{len(self.out_links) - 1}")
        return self.out_links[port]

    def port_utilization(self, horizon: float) -> list[float]:
        return [link.utilization(horizon) for link in self.out_links]
