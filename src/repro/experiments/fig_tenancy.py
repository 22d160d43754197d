"""fig_tenancy — per-job latency degradation and fairness vs. co-tenant
count on one shared fabric (beyond-the-paper exploration).

The paper's benchmarks own the whole machine; real clusters are
multi-tenant.  This experiment submits 1/2/4/8 independent 4-rank
collective jobs through ``repro.tenancy`` onto one shared 32-host
cluster — an oversubscribed two-level fat-tree and a 2D torus — with the
adversarial ``spread`` placement, and measures each job against its solo
baseline (same slots, same seed, idle cluster).  Two curves per
(topology, build): mean contention slowdown and min-max fairness, for
the nab and ab builds.  The question is the paper's selling point under
a workload it never saw: co-tenants are exactly a generator of late,
skewed arrivals, so does application-bypass degrade more gracefully as
neighbours pile on?
"""

from __future__ import annotations

from typing import Sequence

from ..bench.report import Table
from ..orchestrate.points import SweepPoint
from ..orchestrate.runner import run_points
from ..tenancy import ClusterSpec, JobSpec
from .common import ExperimentOutput

#: Swept axes: jobs contending, on which interconnect, which build.
CO_TENANTS = (1, 2, 4, 8)
TOPOLOGIES = ("fattree", "torus")
BUILDS = ("nab", "ab")

#: Fixed per-job shape: 4 ranks, alternating reduce/allreduce, large
#: payload, modest injected skew, staggered arrivals.
JOB_RANKS = 4
COLLECTIVES = ("reduce", "allreduce")


def _cluster_spec(topology: str, *, hosts: int, seed: int) -> ClusterSpec:
    if topology == "fattree":
        # 4 hosts per edge switch, 4:1 oversubscribed uplinks — the
        # contended regime (full bisection would hide the co-tenants).
        return ClusterSpec(hosts=hosts, factory="quiet", seed=seed,
                           topology="fattree",
                           fattree_hosts_per_switch=4,
                           fattree_oversubscription=4.0)
    return ClusterSpec(hosts=hosts, factory="quiet", seed=seed,
                       topology=topology)


def _jobs(njobs: int, build: str, *, elements: int,
          iterations: int) -> list[JobSpec]:
    return [
        JobSpec(name=f"t{i}", nranks=JOB_RANKS,
                collective=COLLECTIVES[i % len(COLLECTIVES)],
                elements=elements, build=build, iterations=iterations,
                warmup=1, max_skew_us=100.0, arrival_us=25.0 * i,
                placement="spread")
        for i in range(njobs)
    ]


def build_points(*, hosts: int = 32, elements: int = 2048,
                 co_tenants: Sequence[int] = CO_TENANTS,
                 topologies: Sequence[str] = TOPOLOGIES,
                 iterations: int = 10, seed: int = 1,
                 collect_invariants: bool = True) -> list[SweepPoint]:
    """The sweep grid (topology x build x co-tenant count), in the
    deterministic order the result cursor below expects.  The co-tenant
    count rides in the experiment tag — SweepPoint.key() does not cover
    executor options."""
    points = []
    for topo in topologies:
        cluster = _cluster_spec(topo, hosts=hosts, seed=seed)
        for build in BUILDS:
            for njobs in co_tenants:
                jobs = _jobs(njobs, build, elements=elements,
                             iterations=iterations)
                points.append(SweepPoint(
                    experiment=f"fig_tenancy-{njobs}j", kind="tenancy",
                    config=cluster.to_config_spec(),
                    build=build, elements=elements, max_skew_us=100.0,
                    iterations=iterations, warmup=1,
                    collect_invariants=collect_invariants,
                    options={"cluster": cluster.to_dict(),
                             "jobs": [j.to_dict() for j in jobs],
                             "solo": True}))
    return points


def run(*, hosts: int = 32, elements: int = 2048,
        co_tenants: Sequence[int] = CO_TENANTS,
        topologies: Sequence[str] = TOPOLOGIES,
        iterations: int = 10, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    points = build_points(hosts=hosts, elements=elements,
                          co_tenants=co_tenants, topologies=topologies,
                          iterations=iterations, seed=seed)
    results = run_points(points, jobs=jobs, progress=progress)

    slowdown_table = Table(
        f"fig_tenancy: mean contention slowdown vs co-tenant count "
        f"(hosts={hosts}, {JOB_RANKS}-rank jobs, {elements} elements, "
        f"spread placement)",
        "co_tenants", list(co_tenants))
    fairness_table = Table(
        "fig_tenancy: min-max fairness of slowdown vs co-tenant count",
        "co_tenants", list(co_tenants))
    cursor = iter(results)
    degradation_at_max: dict[str, float] = {}
    for topo in topologies:
        for build in BUILDS:
            res = [next(cursor) for _ in co_tenants]
            slowdowns = [r.metrics["mean_slowdown"] for r in res]
            fairness = [r.metrics["fairness_minmax"] for r in res]
            slowdown_table.add_series(f"{topo}-{build}", slowdowns)
            fairness_table.add_series(f"{topo}-{build}", fairness)
            degradation_at_max[f"{topo}-{build}"] = slowdowns[-1]

    out = ExperimentOutput("fig_tenancy", [slowdown_table, fairness_table],
                           points=results)
    worst = max(degradation_at_max.items(), key=lambda kv: kv[1])
    out.notes.append(
        f"worst mean slowdown at {co_tenants[-1]} co-tenants: "
        f"{worst[1]:.3f}x on {worst[0]}")
    for topo in topologies:
        nab = degradation_at_max[f"{topo}-nab"]
        ab = degradation_at_max[f"{topo}-ab"]
        out.notes.append(
            f"{topo}: contention tax at {co_tenants[-1]} co-tenants "
            f"nab {nab:.3f}x vs ab {ab:.3f}x")
    violations = sum((r.invariant_report or {}).get("violation_count", 0)
                     for r in results)
    out.notes.append(
        f"invariant violations across the sweep "
        f"(job-tagged, incl. INV-FIFO): {violations}")
    return out
