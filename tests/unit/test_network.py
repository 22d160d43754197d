"""Unit tests for links, the crossbar switch and the fabric.

Links and switches hold state only; ``Topology.transit`` is what advances
it, so their timing is checked through a crossbar topology.
"""

import pytest

from repro.analysis.invariants import InvariantMonitor
from repro.config import NetParams
from repro.network.fabric import Fabric
from repro.network.switch import CrossbarSwitch
from repro.sim.simulator import Simulator
from repro.topo import CrossbarTopology, make_topology


class FakePacket:
    def __init__(self, nbytes=100):
        self.nbytes = nbytes

    def wire_bytes(self, header):
        return self.nbytes + header


def wire_only(rate, switch_latency_us=0.0, nodes=4):
    """A crossbar whose only cost besides serialization at ``rate`` B/us
    is ``switch_latency_us`` per hop (no cable delay)."""
    return CrossbarTopology(NetParams(link_bytes_per_us=rate,
                                      switch_latency_us=switch_latency_us,
                                      cable_latency_us=0.0), nodes)


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_serialization_time():
    topo = wire_only(250.0)
    assert topo.transit(0.0, 0, 1, 500) == pytest.approx(2.0)
    tx = topo.host_links[0]
    assert (tx.free_at, tx.busy_time) == (pytest.approx(2.0),) * 2


def test_link_busy_queueing():
    topo = wire_only(100.0)
    topo.transit(0.0, 0, 1, 1000)                 # TX busy until 10
    assert topo.transit(4.0, 0, 2, 100) == pytest.approx(11.0)  # waited
    tx = topo.host_links[0]
    assert tx.free_at == pytest.approx(11.0)
    assert tx.busy_time == pytest.approx(11.0)


def test_link_idle_gap():
    topo = wire_only(100.0)
    topo.transit(0.0, 0, 1, 100)
    assert topo.transit(50.0, 0, 1, 100) == 51.0   # started at 50: no wait
    assert topo.host_links[0].utilization(100.0) == pytest.approx(0.02)


def test_link_rejects_bad_args():
    with pytest.raises(ValueError, match="bandwidth"):
        make_topology(NetParams(link_bytes_per_us=0.0), 4)
    with pytest.raises(ValueError, match="negative packet size"):
        wire_only(10.0).transit(0.0, 0, 1, -1)


# ---------------------------------------------------------------------------
# CrossbarSwitch
# ---------------------------------------------------------------------------

def test_switch_adds_latency():
    topo = wire_only(100.0, switch_latency_us=0.5)
    # the head leaves the TX link at 0, the switch grants port 2 at 0.5
    assert topo.transit(0.0, 0, 2, 100) == pytest.approx(0.5 + 1.0)
    assert topo.counters()["net_switch_forwarded"] == 1


def test_switch_output_port_contention():
    topo = wire_only(100.0)
    f1 = topo.transit(0.0, 0, 1, 1000)   # occupies port 1 until 10
    f2 = topo.transit(0.0, 2, 1, 100)    # queues behind it
    f3 = topo.transit(0.0, 3, 2, 100)    # different port: no contention
    assert f1 == pytest.approx(10.0)
    assert f2 == pytest.approx(11.0)
    assert f3 == pytest.approx(1.0)


def test_switch_port_bounds():
    sw = CrossbarSwitch(2)
    assert sw.out(1) is sw.out_links[1]
    for port in (2, -1):
        with pytest.raises(ValueError, match="out of range"):
            sw.out(port)


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------

def make_fabric(nodes=4):
    sim = Simulator()
    fabric = Fabric(sim, NetParams(), nodes)
    return sim, fabric


def test_fabric_delivers_to_sink():
    sim, fabric = make_fabric()
    seen = []
    fabric.attach(1, lambda pkt, t: seen.append((pkt, t)))
    pkt = FakePacket(60)
    fabric.inject(pkt, 0, 1, at=0.0)
    sim.run()
    assert seen and seen[0][0] is pkt
    # 100 wire bytes at 250B/us + 0.35 switch + 2x0.1 cable
    assert seen[0][1] == pytest.approx(0.4 + 0.35 + 0.2)


def test_fabric_rejects_loopback_and_unattached():
    sim, fabric = make_fabric()
    fabric.attach(0, lambda *a: None)
    with pytest.raises(ValueError):
        fabric.inject(FakePacket(), 0, 0, 0.0)
    with pytest.raises(RuntimeError):
        fabric.inject(FakePacket(), 0, 3, 0.0)


def test_fabric_double_attach_rejected():
    _, fabric = make_fabric()
    fabric.attach(2, lambda *a: None)
    with pytest.raises(ValueError):
        fabric.attach(2, lambda *a: None)


def test_fabric_per_pair_fifo():
    """Same-pair packets never reorder, even with zero-size frames."""
    sim, fabric = make_fabric()
    deliveries = []
    fabric.attach(1, lambda pkt, t: deliveries.append((pkt.tag, t)))

    class Tagged(FakePacket):
        def __init__(self, tag, nbytes):
            super().__init__(nbytes)
            self.tag = tag

    fabric.inject(Tagged("big", 5000), 0, 1, 0.0)
    fabric.inject(Tagged("small", 0), 0, 1, 0.1)
    sim.run()
    tags = [t for t, _ in deliveries]
    assert tags == ["big", "small"]
    assert deliveries[0][1] <= deliveries[1][1]


@pytest.mark.parametrize("t0", [1000.0, 2.0 ** 23, 2.0 ** 24, 2.0 ** 25])
def test_fabric_fifo_clamp_holds_at_any_time(t0):
    """A later packet of a pair that would land first (a link_degrade
    window ending between the two) is delivered strictly after the earlier
    one — also past 2**24 us, where half an ulp exceeds FIFO_EPSILON."""
    sim, fabric = make_fabric()
    monitor = InvariantMonitor()
    fabric.monitor = monitor
    penalties = iter([5.0, 0.0])
    fabric.transit_penalty = lambda at, src, dst, wire_bytes: next(penalties)
    arrivals = []
    fabric.attach(1, lambda pkt, t: arrivals.append(t))

    def inject_both():
        fabric.inject(FakePacket(), 0, 1, t0)
        fabric.inject(FakePacket(), 0, 1, t0)

    sim.at(t0, inject_both)
    sim.run()
    assert len(arrivals) == 2 and arrivals[1] > arrivals[0]
    assert monitor.violations == []


def test_fabric_counts_traffic():
    sim, fabric = make_fabric()
    fabric.attach(1, lambda *a: None)
    fabric.inject(FakePacket(100), 0, 1, 0.0)
    fabric.inject(FakePacket(50), 2, 1, 0.0)
    sim.run()
    assert fabric.packets_delivered == 2
    header = NetParams().header_bytes
    assert fabric.bytes_delivered == 150 + 2 * header
