"""Tests for the NIC-based reduction extension (refs. [10]/[11])."""

import numpy as np
import pytest

from repro.core.nic_reduce import NicReduce
from repro.mpich.operations import MAX, PROD, SUM
from repro.mpich.rank import MpiBuild
from conftest import contribution, expected_sum, run_ranks


def nicred_program(*, elements=8, root=0, op=SUM, rounds=1, skew_fn=None,
                   post_compute=400.0):
    def program(mpi):
        nicred = NicReduce(mpi)
        nicred.register_comm(mpi.comm_world)
        results, calls = [], []
        for i in range(rounds):
            if skew_fn is not None:
                yield from mpi.compute(skew_fn(mpi.rank, i))
            data = contribution(mpi.rank, elements) * (i + 1)
            t0 = mpi.now
            result = yield from nicred.reduce(data, op, root, mpi.comm_world)
            calls.append(mpi.now - t0)
            results.append(None if result is None else
                           np.array(result, copy=True))
        yield from mpi.compute(post_compute)
        yield from mpi.barrier()
        return results, calls

    return program


@pytest.mark.parametrize("size", [2, 3, 4, 8, 13, 16])
def test_nicred_correct(size):
    out = run_ranks(size, nicred_program())
    results, _ = out.results[0]
    assert np.allclose(results[0], expected_sum(size, 8))


@pytest.mark.parametrize("root", [0, 3, 6])
def test_nicred_nonzero_root(root):
    out = run_ranks(8, nicred_program(root=root))
    results, _ = out.results[root]
    assert np.allclose(results[0], expected_sum(8, 8))


@pytest.mark.parametrize("op,expected", [(SUM, 36.0), (PROD, 40320.0),
                                         (MAX, 8.0)])
def test_nicred_ops(op, expected):
    out = run_ranks(8, nicred_program(elements=1, op=op))
    results, _ = out.results[0]
    assert results[0][0] == expected


def test_internal_hosts_completely_bypassed():
    """Unlike host-side application bypass, even the hand-off is the only
    host involvement: no signals, no host copies, no polling on internal
    nodes."""
    skew = lambda rank, i: 400.0 if rank == 3 else 0.0
    out = run_ranks(8, nicred_program(skew_fn=skew, post_compute=800.0))
    _, calls = out.results[2]          # rank 2 is the late rank's parent
    assert calls[0] < 5.0
    assert out.cluster.total_signals() == 0
    usage = out.cpu_usage(2)
    assert usage.get("copy", 0.0) == 0.0
    assert usage.get("signal", 0.0) == 0.0


def test_back_to_back_instances_with_straggler():
    skew = lambda rank, i: 250.0 if rank == 6 else 0.0
    rounds = 4
    out = run_ranks(8, nicred_program(rounds=rounds, skew_fn=skew,
                                      post_compute=1500.0))
    results, _ = out.results[0]
    for i in range(rounds):
        assert np.allclose(results[i], expected_sum(8, 8) * (i + 1))
    # all NIC states drained everywhere
    for ctx in out.contexts:
        assert ctx.node.nic.collective_unit._states == {}


def test_nic_alu_cost_scales_with_elements():
    """LANai arithmetic makes large-message nicred latency balloon —
    ref. [11]'s "is it beneficial?" trade-off."""
    def root_latency(elements):
        out = run_ranks(8, nicred_program(elements=elements))
        _, calls = out.results[0]
        return calls[0]

    small = root_latency(4)
    large = root_latency(2048)
    assert large > small + 100.0       # 2048 doubles cost ~160us+ of ALU


def test_nicred_vs_host_ab_host_cpu():
    """NIC-based reduction strictly lowers internal-host CPU versus the
    host-side application-bypass implementation."""
    skew = lambda rank, i: 300.0 if rank == 3 else 0.0

    out_nic = run_ranks(8, nicred_program(skew_fn=skew, post_compute=700.0))

    def ab_program(mpi):
        if mpi.rank == 3:
            yield from mpi.compute(300.0)
        yield from mpi.reduce(contribution(mpi.rank, 8), op=SUM, root=0)
        yield from mpi.compute(700.0)
        yield from mpi.barrier()

    out_ab = run_ranks(8, ab_program, build=MpiBuild.AB)

    def host_cpu(out, rank):
        return sum(v for k, v in out.cpu_usage(rank).items() if k != "app")

    for internal in (2, 4, 6):
        assert host_cpu(out_nic, internal) < host_cpu(out_ab, internal)


def test_nicred_follows_the_configured_tree_shape():
    """The NIC units combine along ``MpiParams.tree_shape`` like every
    other collective: on a chain every NIC folds its own contribution plus
    its single child's (the last rank only its own)."""
    from dataclasses import replace

    from repro.config import MpiParams, quiet_cluster
    from repro.bench.nicred import nicred_latency

    size = 8
    config = replace(quiet_cluster(size, seed=0),
                     mpi=MpiParams(tree_shape="chain"))
    out = run_ranks(size, nicred_program(), config=config)
    results, _ = out.results[0]
    assert np.array_equal(results[0], expected_sum(size, 8))
    combines = [ctx.node.nic.collective_unit.stats.nic_combines
                for ctx in out.contexts]
    assert combines == [2] * (size - 1) + [1]     # 1 + children, per node
    # The latency protocol times the chain's last node, not the binomial's.
    chain = nicred_latency(config, elements=8, iterations=2, warmup=1)
    binomial = nicred_latency(quiet_cluster(size, seed=0), elements=8,
                              iterations=2, warmup=1)
    assert chain > binomial
