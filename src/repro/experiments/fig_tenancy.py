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
from ..bench.sweep import BUILD_TAGS, sweep
from ..orchestrate.points import SweepPoint
from ..tenancy import ClusterSpec, JobSpec
from .common import ExperimentOutput

#: Swept axes: jobs contending, on which interconnect, which build.
CO_TENANTS = (1, 2, 4, 8)
TOPOLOGIES = ("fattree", "torus")

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


def run(*, hosts: int = 32, elements: int = 2048,
        co_tenants: Sequence[int] = CO_TENANTS,
        topologies: Sequence[str] = TOPOLOGIES,
        iterations: int = 10, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    def point(topo: str, build: str, njobs: int) -> SweepPoint:
        cluster = _cluster_spec(topo, hosts=hosts, seed=seed)
        tenants = _jobs(njobs, build, elements=elements,
                        iterations=iterations)
        # The co-tenant count rides in the experiment tag (SweepPoint.key).
        return SweepPoint(
            experiment=f"fig_tenancy-{njobs}j", kind="tenancy",
            config=cluster.to_config_spec(),
            build=build, elements=elements, max_skew_us=100.0,
            iterations=iterations, warmup=1, collect_invariants=True,
            options={"cluster": cluster.to_dict(),
                     "jobs": [j.to_dict() for j in tenants],
                     "solo": True})

    cells = sweep({"topo": topologies, "build": BUILD_TAGS,
                   "njobs": co_tenants}, point,
                  jobs=jobs, progress=progress)

    slowdown_table = Table(
        f"fig_tenancy: mean contention slowdown vs co-tenant count "
        f"(hosts={hosts}, {JOB_RANKS}-rank jobs, {elements} elements, "
        f"spread placement)",
        "co_tenants", co_tenants)
    fairness_table = Table(
        "fig_tenancy: min-max fairness of slowdown vs co-tenant count",
        "co_tenants", co_tenants)
    for table, metric in ((slowdown_table, "mean_slowdown"),
                          (fairness_table, "fairness_minmax")):
        cells.fill(table, metric, along="njobs", label="{topo}-{build}")

    out = ExperimentOutput("fig_tenancy", [slowdown_table, fairness_table],
                           points=cells.points)
    most = co_tenants[-1]
    degradation_at_max = {
        (topo, build): cells[topo, build, most].metrics["mean_slowdown"]
        for topo in topologies for build in BUILD_TAGS}
    (worst_topo, worst_build), worst = max(degradation_at_max.items(),
                                           key=lambda kv: kv[1])
    out.notes.append(
        f"worst mean slowdown at {most} co-tenants: "
        f"{worst:.3f}x on {worst_topo}-{worst_build}")
    for topo in topologies:
        out.notes.append(
            f"{topo}: contention tax at {most} co-tenants "
            f"nab {degradation_at_max[topo, 'nab']:.3f}x vs "
            f"ab {degradation_at_max[topo, 'ab']:.3f}x")
    out.notes.append(
        f"invariant violations across the sweep "
        f"(job-tagged, incl. INV-FIFO): {cells.violations()}")
    return out
