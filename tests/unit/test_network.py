"""Unit tests for links, the crossbar switch and the fabric."""

import pytest

from repro.config import NetParams
from repro.network.fabric import Fabric
from repro.network.link import Link
from repro.network.switch import CrossbarSwitch
from repro.sim.simulator import Simulator


class FakePacket:
    def __init__(self, nbytes=100):
        self.nbytes = nbytes

    def wire_bytes(self, header):
        return self.nbytes + header


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_serialization_time():
    link = Link("l", bytes_per_us=250.0)
    assert link.serialization_us(250) == pytest.approx(1.0)
    start, finish = link.transmit(0.0, 500)
    assert (start, finish) == (0.0, pytest.approx(2.0))


def test_link_busy_queueing():
    link = Link("l", 100.0)
    link.transmit(0.0, 1000)              # busy until 10
    start, finish = link.transmit(4.0, 100)
    assert start == pytest.approx(10.0)   # had to wait
    assert finish == pytest.approx(11.0)
    assert link.packets_carried == 2
    assert link.bytes_carried == 1100


def test_link_idle_gap():
    link = Link("l", 100.0)
    link.transmit(0.0, 100)
    start, _ = link.transmit(50.0, 100)
    assert start == 50.0
    assert link.utilization(100.0) == pytest.approx(0.02)


def test_link_rejects_bad_args():
    with pytest.raises(ValueError):
        Link("l", 0.0)
    link = Link("l", 10.0)
    with pytest.raises(ValueError):
        link.transmit(0.0, -1)


# ---------------------------------------------------------------------------
# CrossbarSwitch
# ---------------------------------------------------------------------------

def test_switch_adds_latency():
    sw = CrossbarSwitch(4, latency_us=0.5, link_bytes_per_us=100.0)
    finish = sw.traverse_timed(0.0, 2, 100)[1]
    assert finish == pytest.approx(0.5 + 1.0)
    assert sw.forwarded == 1


def test_switch_output_port_contention():
    sw = CrossbarSwitch(4, latency_us=0.0, link_bytes_per_us=100.0)
    f1 = sw.traverse_timed(0.0, 1, 1000)[1]   # occupies port 1 until 10
    f2 = sw.traverse_timed(0.0, 1, 100)[1]    # queues behind it
    f3 = sw.traverse_timed(0.0, 2, 100)[1]    # different port: no contention
    assert f1 == pytest.approx(10.0)
    assert f2 == pytest.approx(11.0)
    assert f3 == pytest.approx(1.0)


def test_switch_port_bounds():
    sw = CrossbarSwitch(2, 0.1, 100.0)
    with pytest.raises(ValueError):
        sw.traverse_timed(0.0, 2, 10)


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


def test_fabric_counts_traffic():
    sim, fabric = make_fabric()
    fabric.attach(1, lambda *a: None)
    fabric.inject(FakePacket(100), 0, 1, 0.0)
    fabric.inject(FakePacket(50), 2, 1, 0.0)
    sim.run()
    assert fabric.packets_delivered == 2
    header = NetParams().header_bytes
    assert fabric.bytes_delivered == 150 + 2 * header
