"""Property tests for the extensions: AB broadcast, split-phase reduce and
NIC-based reduction stay correct under arbitrary skew patterns."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import AbBroadcast, NicReduce, SplitPhaseReduce
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from conftest import contribution, expected_sum, run_ranks

scenario = st.fixed_dictionaries({
    "size": st.integers(min_value=2, max_value=10),
    "elements": st.sampled_from([1, 4, 16]),
    "root_seed": st.integers(min_value=0, max_value=100),
    "skews": st.lists(st.floats(min_value=0.0, max_value=300.0,
                                allow_nan=False),
                      min_size=10, max_size=10),
    "rounds": st.integers(min_value=1, max_value=3),
})


@settings(max_examples=15, deadline=None)
@given(scenario)
def test_ab_bcast_correct_under_skew(params):
    size = params["size"]
    root = params["root_seed"] % size
    skews = params["skews"][:size]
    rounds = params["rounds"]
    elements = params["elements"]

    def program(mpi):
        bcaster = AbBroadcast(mpi.ab_engine)
        bcaster.register_comm(mpi.comm_world)
        got = []
        for i in range(rounds):
            yield from mpi.compute(skews[mpi.rank])
            payload = np.arange(elements, dtype=np.float64) + i
            if mpi.comm_world.rank_of_world(mpi.rank) == root:
                out = yield from bcaster.bcast(payload, root, mpi.comm_world)
            else:
                out = yield from bcaster.bcast(None, root, mpi.comm_world)
            got.append(np.array(out, copy=True))
        yield from mpi.compute(max(skews) + 400.0)
        yield from mpi.barrier()
        return got

    out = run_ranks(size, program, build=MpiBuild.AB)
    for r in range(size):
        for i in range(rounds):
            np.testing.assert_array_equal(
                out.results[r][i], np.arange(elements, dtype=np.float64) + i)


@settings(max_examples=15, deadline=None)
@given(scenario)
def test_split_phase_correct_under_skew(params):
    size = params["size"]
    root = params["root_seed"] % size
    skews = params["skews"][:size]
    rounds = params["rounds"]
    elements = params["elements"]

    def program(mpi):
        split = SplitPhaseReduce(mpi.ab_engine)
        got = []
        for i in range(rounds):
            yield from mpi.compute(skews[mpi.rank])
            handle = yield from split.start(
                contribution(mpi.rank, elements) * (i + 1), SUM, root,
                mpi.comm_world)
            yield from mpi.compute(50.0)
            result = yield from split.wait(handle)
            if result is not None:
                got.append(np.array(result, copy=True))
        yield from mpi.compute(max(skews) + 400.0)
        yield from mpi.barrier()
        return got

    out = run_ranks(size, program, build=MpiBuild.AB)
    for i in range(rounds):
        np.testing.assert_allclose(out.results[root][i],
                                   expected_sum(size, elements) * (i + 1))
    for ctx in out.contexts:
        assert ctx.ab_engine.bcast is None
        assert ctx.ab_engine.descriptors.empty


@settings(max_examples=15, deadline=None)
@given(scenario)
def test_nic_reduce_correct_under_skew(params):
    size = params["size"]
    root = params["root_seed"] % size
    skews = params["skews"][:size]
    rounds = params["rounds"]
    elements = params["elements"]

    def program(mpi):
        nicred = NicReduce(mpi)
        nicred.register_comm(mpi.comm_world)
        got = []
        for i in range(rounds):
            yield from mpi.compute(skews[mpi.rank])
            result = yield from nicred.reduce(
                contribution(mpi.rank, elements) * (i + 1), SUM, root,
                mpi.comm_world)
            if result is not None:
                got.append(np.array(result, copy=True))
        yield from mpi.compute(max(skews) + 600.0)
        yield from mpi.barrier()
        return got

    out = run_ranks(size, program)
    for i in range(rounds):
        np.testing.assert_allclose(out.results[root][i],
                                   expected_sum(size, elements) * (i + 1))
    for ctx in out.contexts:
        assert ctx.node.nic.collective_unit._states == {}
