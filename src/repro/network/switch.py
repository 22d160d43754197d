"""Cut-through crossbar switch model.

Myrinet-2000 switches are cut-through: a packet's head proceeds to the output
port after only a port-lookup latency, while its tail is still arriving.  We
therefore charge the switch latency once per traversal and model contention
at the *output port* (two packets to the same destination serialize there).
"""

from __future__ import annotations

from .link import Link


class CrossbarSwitch:
    """A single N-port crossbar (the paper's cluster uses one 32-port unit)."""

    def __init__(self, ports: int, latency_us: float, link_bytes_per_us: float):
        if ports < 1:
            raise ValueError("switch needs at least one port")
        self.ports = ports
        self.latency_us = latency_us
        # Output-port serializers: packet streams converging on one
        # destination contend here.
        self.out_links = [Link(f"sw.out[{p}]", link_bytes_per_us)
                          for p in range(ports)]
        self.forwarded = 0

    def traverse_timed(self, at: float, out_port: int,
                       nbytes: int) -> tuple[float, float]:
        """Route a packet head arriving at ``at`` toward ``out_port``.

        Returns when the output port was granted and when the packet's
        last byte leaves it.  Cut-through: serialization on the input link
        overlaps with the output link, so total wire occupancy is charged
        once (here), and multi-hop topologies advance the packet head from
        the grant time, not from the drain finish."""
        if not (0 <= out_port < self.ports):
            raise ValueError(f"port {out_port} out of range 0..{self.ports - 1}")
        self.forwarded += 1
        return self.out_links[out_port].transmit(at + self.latency_us, nbytes)

    def port_utilization(self, horizon: float) -> list[float]:
        return [link.utilization(horizon) for link in self.out_links]
