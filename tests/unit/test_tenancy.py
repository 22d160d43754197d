"""Unit tests for the multi-tenant service layer (repro.tenancy):
spec validation and round-trips, scheduler admission bookkeeping,
placement policies, and the content-addressed result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.config import NetParams
from repro.orchestrate.points import ConfigSpec, PointResult, SweepPoint
from repro.tenancy import (AdmissionError, ClusterSpec, JobSpec, PLACEMENTS,
                           Scheduler, SpecError, locality_block_size,
                           make_placement)
from repro.tenancy.cache import CACHE_SCHEMA, ResultCache, point_cache_key


# ----------------------------------------------------------------------
# JobSpec / ClusterSpec
# ----------------------------------------------------------------------
def test_jobspec_round_trip():
    job = JobSpec(name="t0", nranks=4, collective="allreduce",
                  elements=64, build="nab", iterations=7, warmup=1,
                  max_skew_us=50.0, arrival_us=25.0, placement="spread")
    assert JobSpec.from_dict(job.to_dict()) == job
    assert JobSpec.from_dict(json.loads(json.dumps(job.to_dict()))) == job


def test_jobspec_defaults_survive_sparse_dict():
    job = JobSpec.from_dict({"name": "t", "nranks": 2})
    assert job == JobSpec(name="t", nranks=2)


@pytest.mark.parametrize("bad", [
    dict(name=""), dict(nranks=0), dict(collective="gather"),
    dict(build="mystery"), dict(elements=0), dict(iterations=0),
    dict(warmup=-1), dict(max_skew_us=-1.0), dict(arrival_us=-0.5),
    dict(placement=""),
])
def test_jobspec_validation_rejects(bad):
    base = dict(name="t", nranks=2)
    base.update(bad)
    with pytest.raises(SpecError):
        JobSpec(**base).validate()


def test_clusterspec_round_trip():
    spec = ClusterSpec(hosts=16, factory="paper", seed=3,
                       topology="fattree", fattree_hosts_per_switch=4,
                       fattree_oversubscription=4.0, tree_shape="knomial",
                       tree_radix=4)
    assert ClusterSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("bad", [dict(hosts=0), dict(factory="nope")])
def test_clusterspec_validation_rejects(bad):
    base = dict(hosts=8)
    base.update(bad)
    with pytest.raises(SpecError):
        ClusterSpec(**base).validate()


def test_default_clusterspec_lowers_without_overrides():
    """A default-knob ClusterSpec must produce the exact ConfigSpec a
    pre-tenancy sweep would have — no net/mpi override blocks, so the
    variant digest (and hence every BENCH key) is unchanged."""
    cs = ClusterSpec(hosts=8).to_config_spec()
    assert cs == ConfigSpec("quiet", 8, 1)
    assert cs.net is None and cs.mpi is None


def test_nondefault_topology_lowers_to_net_override():
    cs = ClusterSpec(hosts=8, topology="torus").to_config_spec()
    assert cs.net is not None and cs.net.topology == "torus"
    assert cs.mpi is None
    config = ClusterSpec(hosts=8, topology="torus").build_config()
    assert config.size == 8 and config.net.topology == "torus"


# ----------------------------------------------------------------------
# Scheduler + placement policies
# ----------------------------------------------------------------------
def test_registry_has_the_three_shipped_policies():
    assert {"packed", "spread", "topology_aware"} <= set(PLACEMENTS)
    with pytest.raises(ValueError):
        make_placement("definitely-not-a-policy")


def test_packed_fills_lowest_slots_first():
    sched = Scheduler(ClusterSpec(hosts=8))
    a = sched.submit(JobSpec(name="a", nranks=3, placement="packed"))
    b = sched.submit(JobSpec(name="b", nranks=3, placement="packed"))
    assert a.slots == (0, 1, 2)
    assert b.slots == (3, 4, 5)
    assert (a.job_id, b.job_id) == (0, 1)


def test_spread_round_robins_across_locality_blocks():
    spec = ClusterSpec(hosts=16, topology="fattree",
                       fattree_hosts_per_switch=4)
    assert locality_block_size(spec) == 4
    sched = Scheduler(spec)
    a = sched.submit(JobSpec(name="a", nranks=4, placement="spread"))
    b = sched.submit(JobSpec(name="b", nranks=4, placement="spread"))
    assert a.slots == (0, 4, 8, 12)     # one slot per pod
    assert b.slots == (1, 5, 9, 13)


def test_topology_aware_keeps_job_in_one_block():
    spec = ClusterSpec(hosts=16, topology="fattree",
                       fattree_hosts_per_switch=4)
    sched = Scheduler(spec)
    a = sched.submit(JobSpec(name="a", nranks=4,
                             placement="topology_aware"))
    b = sched.submit(JobSpec(name="b", nranks=4,
                             placement="topology_aware"))
    block = locality_block_size(spec)
    for placement in (a, b):
        assert len({s // block for s in placement.slots}) == 1
    assert not set(a.slots) & set(b.slots)


def test_admission_rejects_oversized_job():
    sched = Scheduler(ClusterSpec(hosts=4))
    sched.submit(JobSpec(name="a", nranks=3))
    with pytest.raises(AdmissionError):
        sched.submit(JobSpec(name="b", nranks=2))


def test_batch_rejects_duplicate_names():
    sched = Scheduler(ClusterSpec(hosts=8))
    with pytest.raises(AdmissionError):
        sched.schedule([JobSpec(name="same", nranks=1),
                        JobSpec(name="same", nranks=1)])


def test_malformed_policy_fails_admission():
    from repro.tenancy.placement import PlacementPolicy

    class Aliasing(PlacementPolicy):
        name = "test_aliasing"

        def place(self, job, free_slots, spec):
            return (0,) * job.nranks    # aliases every rank onto slot 0

    PLACEMENTS["test_aliasing"] = Aliasing()
    try:
        sched = Scheduler(ClusterSpec(hosts=4))
        with pytest.raises(AdmissionError):
            sched.submit(JobSpec(name="a", nranks=2,
                                 placement="test_aliasing"))
    finally:
        del PLACEMENTS["test_aliasing"]


# ----------------------------------------------------------------------
# result cache
# ----------------------------------------------------------------------
def _point(seed: int = 1, experiment: str = "t") -> SweepPoint:
    return SweepPoint(experiment=experiment, kind="cpu_util",
                      config=ConfigSpec("quiet", 4, seed), build="ab",
                      elements=8, max_skew_us=10.0, iterations=3)


def _result(point: SweepPoint) -> PointResult:
    return PointResult(point=point, metrics={"avg_util_us": 12.5},
                       wall_time_s=0.25, counters={"events": 99},
                       invariant_report={"clean": True})


def test_cache_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path / "rc"))
    point = _point()
    assert cache.get(point) is None                  # cold: miss
    key = cache.put(_result(point))
    served = cache.get(point)
    assert served is not None
    assert served.metrics == {"avg_util_us": 12.5}
    assert served.wall_time_s == 0.25                # original wall time
    assert served.counters == {"events": 99}
    assert served.invariant_report == {"clean": True}
    assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}
    assert os.path.exists(tmp_path / "rc" / f"{key}.json")


def test_cache_key_distinguishes_points():
    assert point_cache_key(_point(seed=1)) != point_cache_key(_point(seed=2))
    assert point_cache_key(_point()) == point_cache_key(_point())


def test_cache_key_covers_options():
    """SweepPoint.key() ignores ``options`` — the cache key must NOT
    (tenancy points carry their whole job mix in options)."""
    a = _point()
    b = SweepPoint(experiment="t", kind="cpu_util",
                   config=ConfigSpec("quiet", 4, 1), build="ab",
                   elements=8, max_skew_us=10.0, iterations=3,
                   options={"jobs": 2})
    assert point_cache_key(a) != point_cache_key(b)


def test_corrupt_entry_counts_as_miss(tmp_path):
    cache = ResultCache(str(tmp_path / "rc"))
    point = _point()
    key = cache.put(_result(point))
    (tmp_path / "rc" / f"{key}.json").write_text("{nope")
    assert cache.get(point) is None
    assert cache.stats()["misses"] == 1
    cache.put(_result(point))                        # overwrite repairs it
    assert cache.get(point) is not None


def test_schema_bump_invalidates_by_construction(tmp_path, monkeypatch):
    """A CACHE_SCHEMA bump changes every content address, so old entries
    are never read — no explicit invalidation pass exists or is needed."""
    import repro.tenancy.cache as cache_mod
    cache = ResultCache(str(tmp_path / "rc"))
    point = _point()
    old_key = cache.put(_result(point))
    monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", CACHE_SCHEMA + 1)
    assert cache_mod.point_cache_key(point) != old_key
    assert cache.get(point) is None                  # addressed past it
