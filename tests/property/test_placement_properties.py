"""Property-based tests for the tenancy placement policies (hypothesis).

The placement contract (DESIGN.md §14): for ANY feasible job mix on ANY
cluster shape, every policy hands each job exactly ``nranks`` distinct
in-range host slots drawn from the free set, in ascending order, and a
scheduled batch occupies pairwise-disjoint slots.
"""

from hypothesis import given, settings, strategies as st

from repro.tenancy import (AdmissionError, ClusterSpec, JobSpec, PLACEMENTS,
                           Scheduler, locality_block_size, make_placement)

import pytest

POLICIES = sorted(PLACEMENTS)

clusters = st.one_of(
    st.builds(ClusterSpec,
              hosts=st.sampled_from([4, 8, 16, 32])),
    st.builds(ClusterSpec,
              hosts=st.sampled_from([8, 16, 32]),
              topology=st.just("fattree"),
              fattree_hosts_per_switch=st.sampled_from([2, 4, 8]),
              fattree_oversubscription=st.sampled_from([1.0, 4.0])),
    st.builds(ClusterSpec,
              hosts=st.sampled_from([4, 16]),
              topology=st.just("torus")),
)


def job_mix(hosts: int):
    """A feasible batch: job sizes whose sum fits in ``hosts``."""
    sizes = st.lists(st.integers(min_value=1, max_value=hosts),
                     min_size=1, max_size=8)
    return sizes.filter(lambda ns: sum(ns) <= hosts)


@st.composite
def feasible_workloads(draw):
    spec = draw(clusters)
    policy = draw(st.sampled_from(POLICIES))
    sizes = draw(job_mix(spec.hosts))
    jobs = [JobSpec(name=f"j{i}", nranks=n, placement=policy)
            for i, n in enumerate(sizes)]
    return spec, jobs


@given(feasible_workloads())
@settings(max_examples=200, deadline=None)
def test_every_policy_yields_disjoint_in_range_slots(workload):
    spec, jobs = workload
    scheduler = Scheduler(spec)
    placements = scheduler.schedule(jobs)
    assert len(placements) == len(jobs)
    occupied = set()
    for job, placement in zip(jobs, placements):
        slots = list(placement.slots)
        # exactly nranks distinct slots, ascending, in range
        assert len(slots) == job.nranks
        assert len(set(slots)) == job.nranks
        assert slots == sorted(slots)
        assert all(0 <= s < spec.hosts for s in slots)
        # pairwise disjoint across the batch
        assert not occupied & set(slots)
        occupied |= set(slots)
    assert set(scheduler.free_slots) == set(range(spec.hosts)) - occupied


@given(feasible_workloads())
@settings(max_examples=100, deadline=None)
def test_placement_is_deterministic(workload):
    spec, jobs = workload
    first = [p.slots for p in Scheduler(spec).schedule(jobs)]
    second = [p.slots for p in Scheduler(spec).schedule(jobs)]
    assert first == second


@given(clusters, st.sampled_from(POLICIES))
@settings(max_examples=100, deadline=None)
def test_policy_output_from_raw_free_set(spec, policy_name):
    """The policy itself (below the Scheduler) honours the contract even
    on a fragmented free set."""
    policy = make_placement(policy_name)
    free = set(range(0, spec.hosts, 2)) | {spec.hosts - 1}
    job = JobSpec(name="j", nranks=min(3, len(free)),
                  placement=policy_name)
    slots = policy.place(job, frozenset(free), spec)
    assert len(slots) == job.nranks
    assert len(set(slots)) == job.nranks
    assert set(slots) <= free


@given(clusters)
@settings(max_examples=50, deadline=None)
def test_infeasible_job_is_rejected(spec):
    scheduler = Scheduler(spec)
    too_big = JobSpec(name="big", nranks=spec.hosts + 1)
    with pytest.raises(AdmissionError):
        scheduler.submit(too_big)


@given(clusters)
@settings(max_examples=50, deadline=None)
def test_locality_block_divides_cluster(spec):
    block = locality_block_size(spec)
    assert 1 <= block <= spec.hosts
