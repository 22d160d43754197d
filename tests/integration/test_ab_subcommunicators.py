"""AB reductions on sub-communicators and interleaved contexts —
instance counters are per collective context, and this pins that down.

A communicator is built once, outside the rank program, and shared by its
members: every rank must see the same context ids."""

import numpy as np
import pytest

from repro.mpich.communicator import Communicator
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from conftest import contribution, expected_sum, run_ranks


def test_ab_reduce_on_split_halves():
    size = 8
    halves = [Communicator(tuple(range(color, size, 2))) for color in (0, 1)]

    def program(mpi):
        sub = halves[mpi.rank % 2]
        if mpi.rank == 6:
            yield from mpi.compute(150.0)     # straggler in the odd half
        result = yield from mpi.reduce(np.array([float(mpi.rank)]), op=SUM,
                                       root=0, comm=sub)
        yield from mpi.compute(400.0)
        yield from mpi.barrier()
        return None if result is None else float(result[0])

    out = run_ranks(size, program, build=MpiBuild.AB)
    assert out.results[0] == 0.0 + 2 + 4 + 6      # even half at world 0
    assert out.results[1] == 1.0 + 3 + 5 + 7      # odd half at world 1
    for r in range(2, size):
        assert out.results[r] is None


def test_ab_reduces_interleaved_across_communicators():
    """World-comm and sub-comm reductions interleave; per-context instance
    counters must keep every late message matched to the right one."""
    size = 8
    dup = Communicator(tuple(range(size)), "interleave")

    def program(mpi):
        world = mpi.comm_world
        results = []
        for i in range(3):
            if mpi.rank == 3:
                yield from mpi.compute(120.0)
            a = yield from mpi.reduce(contribution(mpi.rank, 2) * (i + 1),
                                      op=SUM, root=0, comm=world)
            b = yield from mpi.reduce(contribution(mpi.rank, 2) * 10,
                                      op=SUM, root=0, comm=dup)
            if mpi.rank == 0:
                results.append((float(a[0]), float(b[0])))
        yield from mpi.compute(600.0)
        yield from mpi.barrier()
        return results

    out = run_ranks(size, program, build=MpiBuild.AB)
    base = float(expected_sum(size, 2)[0])
    for i, (a, b) in enumerate(out.results[0]):
        assert a == base * (i + 1)
        assert b == base * 10


@pytest.mark.parametrize("build", [MpiBuild.DEFAULT, MpiBuild.AB])
def test_reduces_on_two_communicators_in_different_orders(build):
    """MPI orders collectives per communicator, not across them: rank 5
    reduces on ``dup`` before ``comm_world``.  Both reduces are instance 0
    of their own context, so its parent must match each packet by sender
    *and* context, never by sender alone."""
    size = 8
    dup = Communicator(tuple(range(size)), "dup")

    def program(mpi):
        calls = [(mpi.comm_world, 1.0), (dup, 100.0)]
        if mpi.rank == 5:
            calls.reverse()
        sums = {}
        for comm, scale in calls:
            r = yield from mpi.reduce(np.array([scale * (mpi.rank + 1)]),
                                      op=SUM, root=0, comm=comm)
            if r is not None:
                sums[scale] = float(r[0])
        return sums

    out = run_ranks(size, program, build=build)
    assert out.results[0] == {1.0: 36.0, 100.0: 3600.0}


def test_ab_reduce_different_roots_same_comm_interleaved():
    """Rotating roots back to back: descriptors for different trees from
    the same children must stay separate."""
    size = 8

    def program(mpi):
        results = {}
        for root in (0, 5, 2, 7):
            if mpi.rank == (root + 3) % size:
                yield from mpi.compute(100.0)
            r = yield from mpi.reduce(contribution(mpi.rank, 2), op=SUM,
                                      root=root)
            if r is not None:
                results[root] = float(r[0])
        yield from mpi.compute(500.0)
        yield from mpi.barrier()
        return results

    out = run_ranks(size, program, build=MpiBuild.AB)
    base = float(expected_sum(size, 2)[0])
    for root in (0, 5, 2, 7):
        assert out.results[root][root] == base


def test_ab_quiesces_on_subcommunicators():
    halves = [Communicator(tuple(range(4))), Communicator(tuple(range(4, 8)))]

    def program(mpi):
        sub = halves[mpi.rank // 4]
        for _ in range(4):
            yield from mpi.reduce(np.ones(2), op=SUM,
                                  root=0, comm=sub)
        yield from mpi.compute(300.0)
        yield from mpi.barrier()

    out = run_ranks(8, program, build=MpiBuild.AB)
    for ctx in out.contexts:
        assert ctx.ab_engine.descriptors.empty
        assert ctx.ab_engine.unexpected.empty
        assert not ctx.node.nic.signals_enabled
