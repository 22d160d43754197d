"""End-to-end property tests: the application-bypass reduction computes
identical results to the default implementation under arbitrary skew
patterns, message sizes, roots and operation mixes — and always returns
every rank to a quiescent state (descriptors drained, signals off).

These drive the full simulated stack, so example counts are kept modest.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpich.operations import MAX, MIN, PROD, SUM
from repro.mpich.rank import MpiBuild
from conftest import run_ranks

OPS = {"sum": SUM, "prod": PROD, "min": MIN, "max": MAX}

scenario = st.fixed_dictionaries({
    "size": st.integers(min_value=2, max_value=12),
    "elements": st.sampled_from([1, 3, 8, 32]),
    "op": st.sampled_from(sorted(OPS)),
    "root_seed": st.integers(min_value=0, max_value=1_000),
    "skews": st.lists(st.floats(min_value=0.0, max_value=400.0,
                                allow_nan=False),
                      min_size=12, max_size=12),
    "rounds": st.integers(min_value=1, max_value=3),
})


def run_scenario(build, params):
    size = params["size"]
    op = OPS[params["op"]]
    root = params["root_seed"] % size
    skews = params["skews"][:size]
    elements = params["elements"]
    rounds = params["rounds"]

    def program(mpi):
        results = []
        for i in range(rounds):
            yield from mpi.compute(skews[mpi.rank])
            # values kept small and positive so PROD stays finite
            data = np.linspace(1.0, 2.0, elements) + 0.1 * mpi.rank + i
            result = yield from mpi.reduce(data, op=op, root=root)
            if result is not None:
                results.append(np.array(result, copy=True))
        yield from mpi.compute(max(skews) + 600.0)
        yield from mpi.barrier()
        return results

    return run_ranks(size, program, build=build), root


def reference(params):
    size = params["size"]
    op = OPS[params["op"]]
    elements = params["elements"]
    outs = []
    for i in range(params["rounds"]):
        vals = [np.linspace(1.0, 2.0, elements) + 0.1 * r + i
                for r in range(size)]
        acc = vals[0].copy()
        for v in vals[1:]:
            op.apply(acc, v)
        outs.append(acc)
    return outs


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_ab_reduce_matches_reference(params):
    out, root = run_scenario(MpiBuild.AB, params)
    want = reference(params)
    got = out.results[root]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12)


@settings(max_examples=15, deadline=None)
@given(scenario)
def test_builds_agree_exactly(params):
    ab, root = run_scenario(MpiBuild.AB, params)
    nab, _ = run_scenario(MpiBuild.DEFAULT, params)
    for g, w in zip(ab.results[root], nab.results[root]):
        np.testing.assert_allclose(g, w, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(scenario)
def test_ab_always_quiesces(params):
    out, _ = run_scenario(MpiBuild.AB, params)
    for ctx in out.contexts:
        eng = ctx.ab_engine
        assert eng.descriptors.empty
        assert eng.unexpected.empty
        assert not ctx.node.nic.signals_enabled
        assert eng.bcast is None
        # matching queues drained too: no stray collective traffic
        assert not ctx.progress.matching.posted
        assert not ctx.progress.matching.unexpected
        assert not ctx.node.nic.rx_queue


@settings(max_examples=10, deadline=None)
@given(scenario, st.integers(min_value=0, max_value=2**31 - 1))
def test_runs_are_seed_deterministic(params, seed):
    a, root = run_scenario(MpiBuild.AB, params)
    b, _ = run_scenario(MpiBuild.AB, params)
    assert a.finished_at == b.finished_at
    for g, w in zip(a.results[root], b.results[root]):
        assert np.array_equal(g, w)
