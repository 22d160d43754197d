"""Tests for GM token-based flow control (send tokens / receive buffers)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import NicParams, quiet_cluster
from repro.cluster.cluster import Cluster
from repro.gm.packet import Packet, PacketType
from repro.mpich.rank import MpiBuild
from conftest import run_ranks


def make_pair(send_tokens=16, recv_tokens=64):
    nic = NicParams(send_tokens=send_tokens, recv_tokens=recv_tokens)
    cluster = Cluster(replace(quiet_cluster(2), nic=nic))
    return cluster, cluster.nodes[0].nic, cluster.nodes[1].nic


def test_send_tokens_throttle_burst():
    cluster, nic0, nic1 = make_pair(send_tokens=2)
    for _ in range(6):
        nic0.send(Packet(0, 1, PacketType.EAGER, 1000, None))
    assert nic0.stats.send_token_stalls > 0
    cluster.sim.run()
    assert nic1.stats.packets_received == 6   # throttled, never dropped


def test_no_stalls_below_token_limit():
    cluster, nic0, nic1 = make_pair(send_tokens=16)
    for _ in range(8):
        nic0.send(Packet(0, 1, PacketType.EAGER, 100, None))
    assert nic0.stats.send_token_stalls == 0
    cluster.sim.run()
    assert nic1.stats.packets_received == 8


def test_recv_tokens_backpressure():
    """With only 2 receive buffers and a host that never drains, further
    arrivals wait at the NIC; draining releases them one for one."""
    cluster, nic0, nic1 = make_pair(recv_tokens=2)
    for _ in range(5):
        nic0.send(Packet(0, 1, PacketType.EAGER, 64, None))
    cluster.sim.run()
    assert len(nic1.rx_queue) == 2            # only two buffers filled
    assert nic1.stats.recv_token_stalls == 3
    # draining one admits the next backlogged packet
    nic1.pop_rx()
    cluster.sim.run()
    assert len(nic1.rx_queue) == 2
    while nic1.rx_queue:
        nic1.pop_rx()
        cluster.sim.run()
    assert nic1.stats.packets_received == 5


def test_flow_control_transparent_to_mpi():
    """A many-message exchange completes correctly even with tiny token
    pools (the MPI layer never sees the throttling, only the timing)."""
    nic = NicParams(send_tokens=2, recv_tokens=3)
    config = replace(quiet_cluster(2), nic=nic)
    n = 20

    def program(mpi):
        if mpi.rank == 0:
            for i in range(n):
                yield from mpi.send(np.array([float(i)]), 1, tag=1)
            return None
        got = []
        buf = np.zeros(1)
        yield from mpi.compute(150.0)   # let the burst pile up first
        for _ in range(n):
            yield from mpi.recv(buf, 0, tag=1)
            got.append(buf[0])
        return got

    out = run_ranks(2, program, config=config)
    assert out.results[1] == [float(i) for i in range(n)]
    assert out.cluster.nodes[1].nic.stats.recv_token_stalls > 0


def test_reduction_benchmarks_unaffected_by_default_tokens():
    """The paper's reductions never exhaust GM's default token pools."""
    def program(mpi):
        for _ in range(5):
            yield from mpi.reduce(np.ones(4), root=0)
            yield from mpi.barrier()

    out = run_ranks(16, program, build=MpiBuild.AB)
    for node in out.cluster.nodes:
        assert node.nic.stats.send_token_stalls == 0
        assert node.nic.stats.recv_token_stalls == 0
