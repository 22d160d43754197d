"""Integration tests for the multi-tenant service: bit-identity against
the legacy single-job path, serial vs. pooled orchestration, and cache
round-trip byte-identity."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.mpich.rank import MpiBuild
from repro.orchestrate.benchjson import bench_payload
from repro.orchestrate.points import GRIDS
from repro.orchestrate.runner import run_points
from repro.runtime.program import run_program
from repro.tenancy import (ClusterSpec, JobSpec, Scheduler, job_program,
                           run_tenancy)
from repro.tenancy.cache import ResultCache
from repro.tenancy.service import _run_jobs_on_cluster


# ----------------------------------------------------------------------
# solo tenancy job == legacy single-job path (bit-identical)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("build", ["nab", "ab"])
def test_solo_tenancy_job_matches_legacy_run_program(build):
    """One job spanning the whole cluster, run through the tenancy
    service, must be bit-identical to the same program under the legacy
    ``run_program`` path: same per-rank latency samples, same timestamps,
    same finish time.  This pins the namespacing layer to zero overhead
    in the degenerate single-tenant case."""
    spec = ClusterSpec(hosts=8, factory="quiet", seed=3)
    job = JobSpec(name="solo", nranks=8, collective="allreduce",
                  elements=256, build=build, iterations=6, warmup=1,
                  max_skew_us=50.0)

    placements = Scheduler(spec).schedule([job])
    assert placements[0].slots == tuple(range(8))
    cluster, samples = _run_jobs_on_cluster(spec, placements)
    legacy = run_program(
        spec.build_config(), lambda mpi: job_program(mpi, job),
        build=MpiBuild.AB if build == "ab" else MpiBuild.DEFAULT)

    tenancy_samples = sorted(samples[0], key=lambda s: s.world_rank)
    legacy_samples = sorted(legacy.results, key=lambda s: s.world_rank)
    assert len(tenancy_samples) == len(legacy_samples) == 8
    for ts, ls in zip(tenancy_samples, legacy_samples):
        assert ts.job_rank == ls.job_rank
        assert ts.world_rank == ls.world_rank
        assert ts.start_us == ls.start_us
        assert ts.end_us == ls.end_us
        assert ts.latencies == ls.latencies
        assert ts.checks == ls.checks
    assert cluster.sim.now == legacy.finished_at
    assert dict(cluster.sim.counters()) == dict(legacy.sim_counters())


def test_solo_tenancy_metrics_report_no_contention():
    """A lone tenant has nothing to contend with: slowdown exactly 1.0
    (the solo baseline replays the identical simulation)."""
    spec = ClusterSpec(hosts=8, factory="quiet", seed=3)
    job = JobSpec(name="solo", nranks=8, collective="reduce",
                  elements=64, iterations=4, warmup=1, max_skew_us=50.0)
    result = run_tenancy(spec, [job])
    metrics = result.metrics()
    assert metrics["job0_slowdown"] == 1.0
    assert metrics["fairness_minmax"] == 1.0
    assert metrics["job0_checks"] > 0


# ----------------------------------------------------------------------
# serial == pooled (bit-identical orchestration)
# ----------------------------------------------------------------------
def _point_fingerprint(result):
    return (result.point.key(), tuple(sorted(result.metrics.items())),
            tuple(sorted(result.counters.items())))


def _unmonitored_tenancy_grid():
    return [replace(p, collect_invariants=False)
            for p in GRIDS["tenancy"].points(iterations=2)]


def test_serial_and_pooled_tenancy_points_bit_identical():
    points = _unmonitored_tenancy_grid()
    serial = run_points(points, jobs=1)
    pooled = run_points(points, jobs=2)
    assert ([_point_fingerprint(r) for r in serial]
            == [_point_fingerprint(r) for r in pooled])


# ----------------------------------------------------------------------
# result cache: warm run serves byte-identical BENCH points
# ----------------------------------------------------------------------
def test_warm_cache_serves_byte_identical_bench_points(tmp_path):
    points = _unmonitored_tenancy_grid()
    cache_dir = str(tmp_path / "rc")

    cold_cache = ResultCache(cache_dir)
    cold = run_points(points, jobs=1, cache=cold_cache)
    assert cold_cache.stats() == {"hits": 0, "misses": len(points),
                                  "entries": len(points)}

    warm_cache = ResultCache(cache_dir)
    warm = run_points(points, jobs=1, cache=warm_cache)
    assert warm_cache.stats()["hits"] == len(points)
    assert warm_cache.stats()["misses"] == 0

    # The BENCH payload's points array (everything except the run
    # timestamp) must be byte-identical between cold and warm runs.
    cold_points = bench_payload("t", cold, jobs=1, sha="x")["points"]
    warm_points = bench_payload("t", warm, jobs=1, sha="x")["points"]
    assert (json.dumps(cold_points, sort_keys=True)
            == json.dumps(warm_points, sort_keys=True))
