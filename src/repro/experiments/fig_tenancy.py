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

from functools import partial
from typing import Sequence

from ..bench.report import Table
from ..bench.sweep import sweep
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import TENANT_RANKS, tenancy_point
from .common import ExperimentOutput

#: Swept axes: jobs contending, on which interconnect, which build.
CO_TENANTS = (1, 2, 4, 8)
TOPOLOGIES = ("fattree", "torus")


def run(*, hosts: int = 32, elements: int = 2048,
        co_tenants: Sequence[int] = CO_TENANTS,
        topologies: Sequence[str] = TOPOLOGIES,
        iterations: int = 10, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    cells = sweep({"topo": topologies, "build": BUILD_TAGS,
                   "njobs": co_tenants},
                  partial(tenancy_point, "fig_tenancy", hosts=hosts,
                          elements=elements, iterations=iterations,
                          seed=seed),
                  jobs=jobs, progress=progress)

    slowdown_table = Table(
        f"fig_tenancy: mean contention slowdown vs co-tenant count "
        f"(hosts={hosts}, {TENANT_RANKS}-rank jobs, {elements} elements, "
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
    out.claim(f"invariant violations across the sweep "
              f"(job-tagged, incl. INV-FIFO): {cells.violations()}",
              cells.violations() == 0)
    return out
