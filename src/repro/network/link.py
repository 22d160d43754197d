"""Serializing link state.

A Myrinet link transmits one packet at a time at the full link rate; packets
that find the link busy queue behind it.  ``Link`` holds the time at which
the link becomes free and how long it has spent busy;
:meth:`repro.topo.Topology.transit` is the one place that advances them
(every link of a fabric runs at ``NetParams.link_bytes_per_us``).
"""

from __future__ import annotations


class Link:
    """One direction of a full-duplex link."""

    __slots__ = ("free_at", "busy_time")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.busy_time = 0.0

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` the link spent busy."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)
