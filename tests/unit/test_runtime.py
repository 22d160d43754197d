"""Tests for the SPMD runtime (program launcher and rank contexts)."""

import numpy as np
import pytest

from repro import MpiBuild, quiet_cluster, run_program
from repro.errors import ProcessFailed
from repro.runtime.program import build_cluster
from conftest import run_ranks


def test_results_indexed_by_rank():
    def program(mpi):
        yield from mpi.compute(1.0)
        return mpi.rank * 10

    out = run_ranks(4, program)
    assert out.results == [0, 10, 20, 30]


def test_context_identity():
    def program(mpi):
        yield from mpi.compute(0.0)
        return mpi.rank, mpi.size

    out = run_ranks(3, program)
    assert out.results == [(0, 3), (1, 3), (2, 3)]
    assert [c.rank for c in out.contexts] == [0, 1, 2]


def test_default_build_has_no_ab_engine():
    def program(mpi):
        yield from mpi.compute(0.0)

    out = run_ranks(2, program, build=MpiBuild.DEFAULT)
    assert all(c.ab_engine is None for c in out.contexts)
    assert all(c.progress.hook is None for c in out.contexts)


def test_ab_build_installs_engine_and_hook():
    def program(mpi):
        yield from mpi.compute(0.0)

    out = run_ranks(2, program, build=MpiBuild.AB)
    for c in out.contexts:
        assert c.ab_engine is not None
        assert c.progress.hook is c.ab_engine


def test_prebuilt_cluster_reuse():
    cluster = build_cluster(quiet_cluster(2))

    def program(mpi):
        yield from mpi.compute(5.0)
        return mpi.now

    out = run_program(cluster, program)
    assert out.cluster is cluster
    assert out.finished_at >= 5.0


def test_rank_exception_propagates_with_name():
    def program(mpi):
        yield from mpi.compute(1.0)
        if mpi.rank == 2:
            raise RuntimeError("rank 2 exploded")

    with pytest.raises(ProcessFailed) as exc:
        run_ranks(4, program)
    assert exc.value.process_name == "rank2"


def test_compute_zero_is_noop():
    def program(mpi):
        yield from mpi.compute(0.0)
        return mpi.now

    out = run_ranks(1, program)
    assert out.results[0] == 0.0


def test_deterministic_repeat_runs():
    def program(mpi):
        if mpi.rank % 2:
            yield from mpi.compute(float(mpi.rank))
        result = yield from mpi.reduce(np.array([1.0 * mpi.rank]))
        yield from mpi.barrier()
        return None if result is None else float(result[0])

    a = run_ranks(8, program, build=MpiBuild.AB, seed=3)
    b = run_ranks(8, program, build=MpiBuild.AB, seed=3)
    assert a.results == b.results
    assert a.finished_at == b.finished_at
    assert a.cpu_usage(5) == b.cpu_usage(5)
