"""Time, size and rate units used throughout the simulation.

The simulator's clock is a ``float`` measured in **microseconds** — the
natural unit for the paper, whose skews, latencies and CPU utilizations are
all reported in microseconds.

Sizes are **bytes**; bandwidths are **bytes per microsecond** (1 byte/us ==
1 MB/s exactly in this convention: 1e6 bytes / 1e6 us).
"""

from __future__ import annotations


def gbit_per_s(value: float) -> float:
    """Gigabits per second → bytes per microsecond.

    Myrinet-2000 runs at 2 Gbit/s full duplex, i.e. ``gbit_per_s(2.0) == 250``
    bytes/us.
    """
    return float(value) * 1e9 / 8.0 / 1e6
