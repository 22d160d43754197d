"""The multi-tenant run service: N jobs, one fabric, per-job results.

``run_tenancy`` is the tenancy counterpart of
:func:`repro.runtime.program.run_program`: it builds **one** shared
cluster from a :class:`~repro.tenancy.spec.ClusterSpec`, schedules every
:class:`~repro.tenancy.spec.JobSpec` onto disjoint host slots, gives each
job a private :class:`~repro.mpich.communicator.Communicator` over its
slots (fresh matching contexts, so concurrent collectives can never
cross-match), and drives all jobs to completion in a single simulation —
contending for the same links, switch ports and NICs.

Job namespacing contract (DESIGN.md §14):

* **slots** — disjoint by scheduler construction; a world rank belongs
  to at most one job, so every per-node namespace (RNG streams, CPU
  accounting, NIC queues, descriptor instances, unexpected-queue keys —
  all already keyed by world rank) is per-job disjoint for free.
* **contexts** — each job's communicator allocates fresh context ids,
  isolating matching across jobs sharing a switch.
* **tags** — each shared-cluster node carries ``node.job_id`` /
  ``node.job_name``, which the invariant monitor copies into every
  violation so an INV-* report from a co-tenant run names the tenant.

Per-job metrics: makespan (arrival → last rank out of the closing
barrier), mean/max collective latency, NIC signals, and — when the solo
baseline is enabled — slowdown vs. running the same job alone on an
otherwise-idle but otherwise *identical* cluster (same slots, same seed,
same arrival, so the only difference is contention) plus the batch's
min/max fairness ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cluster.cluster import Cluster
from ..mpich.communicator import Communicator
from ..mpich.rank import BUILD_TAGS, MpiRank
from .scheduler import Placement, Scheduler
from .spec import ClusterSpec
from .workload import JobRankSample, job_program


@dataclass
class JobResult:
    """Per-job outcome of one tenancy run."""

    job_id: int
    name: str
    build: str
    collective: str
    slots: tuple
    arrival_us: float
    #: arrival -> last rank through the job's closing barrier.
    makespan_us: float
    #: Mean/max collective-call latency over measured iterations x ranks.
    avg_latency_us: float
    max_latency_us: float
    #: NIC signals raised on this job's slots (shared run).
    signals: int
    #: Numerically-verified collective results across ranks.
    checks: int
    #: makespan / makespan of the same job alone on an identical cluster
    #: (same slots/seed/arrival) — contention-induced degradation.
    slowdown: Optional[float] = None


@dataclass
class TenancyResult:
    """Everything one multi-tenant run exposes."""

    spec: ClusterSpec
    jobs: list
    cluster: Cluster
    finished_at: float
    sim_counters: dict = field(default_factory=dict)

    def metrics(self) -> dict:
        """Flat float metrics for BENCH json (bit-deterministic)."""
        out: dict[str, float] = {"jobs": float(len(self.jobs))}
        slowdowns = []
        for j in self.jobs:
            prefix = f"job{j.job_id}"
            out[f"{prefix}_makespan_us"] = float(j.makespan_us)
            out[f"{prefix}_avg_latency_us"] = float(j.avg_latency_us)
            out[f"{prefix}_max_latency_us"] = float(j.max_latency_us)
            out[f"{prefix}_signals"] = float(j.signals)
            out[f"{prefix}_checks"] = float(j.checks)
            if j.slowdown is not None:
                out[f"{prefix}_slowdown"] = float(j.slowdown)
                slowdowns.append(float(j.slowdown))
        if self.jobs:
            out["max_makespan_us"] = max(float(j.makespan_us)
                                         for j in self.jobs)
        if slowdowns:
            out["mean_slowdown"] = sum(slowdowns) / len(slowdowns)
            out["max_slowdown"] = max(slowdowns)
            # Min-max fairness of degradation: 1.0 = every tenant pays
            # the same contention tax; -> 0 as one tenant starves.
            out["fairness_minmax"] = (min(slowdowns) / max(slowdowns)
                                      if max(slowdowns) > 0.0 else 1.0)
        return out


def _run_jobs_on_cluster(spec: ClusterSpec, placements: list):
    """One simulation: every placement's job on one shared cluster.

    Returns ``(cluster, {job_id: [JobRankSample, ...]})``.
    """
    config = spec.build_config()
    cluster = Cluster(config)
    for p in placements:
        for slot in p.slots:
            node = cluster.nodes[slot]
            node.job_id = p.job_id
            node.job_name = p.job.name
    processes: dict[int, list] = {}
    for p in placements:
        comm = Communicator(p.slots, name=f"job{p.job_id}")
        procs = []
        for jrank, slot in enumerate(p.slots):
            # The job's communicator is the rank's default communicator:
            # collectives stay inside the job, while ``node``/``rank``
            # keep addressing the shared world.
            mpi = MpiRank(cluster.nodes[slot], comm, BUILD_TAGS[p.job.build])
            procs.append(cluster.sim.spawn(
                job_program(mpi, p.job),
                name=f"{p.job.name}.r{jrank}", cpu=mpi.node.cpu))
        processes[p.job_id] = procs
    cluster.sim.run()
    monitor = cluster.monitor
    if monitor is not None:
        monitor.finalize()
    samples = {job_id: [proc.result for proc in procs]
               for job_id, procs in processes.items()}
    return cluster, samples


def _job_result(placement: Placement, samples: list,
                cluster: Cluster) -> JobResult:
    job = placement.job
    assert all(isinstance(s, JobRankSample) for s in samples)
    end = max(s.end_us for s in samples)
    latencies = [lat for s in samples for lat in s.latencies]
    signals = sum(cluster.nodes[slot].nic.stats.signals_raised
                  for slot in placement.slots)
    return JobResult(
        job_id=placement.job_id,
        name=job.name,
        build=job.build,
        collective=job.collective,
        slots=placement.slots,
        arrival_us=job.arrival_us,
        makespan_us=end - job.arrival_us,
        avg_latency_us=(sum(latencies) / len(latencies)
                        if latencies else 0.0),
        max_latency_us=max(latencies) if latencies else 0.0,
        signals=signals,
        checks=sum(s.checks for s in samples),
    )


def run_tenancy(spec: ClusterSpec, jobs, *,
                solo_baseline: bool = True) -> TenancyResult:
    """Schedule ``jobs`` on one shared cluster and run them to completion.

    With ``solo_baseline`` (the default) each job is additionally re-run
    *alone* on a fresh, otherwise-identical cluster pinned to the same
    slots, so every :class:`JobResult` carries its contention slowdown
    and the batch metrics include min-max fairness.  The shared run is
    always simulated first, then the solos in job order — a fixed order,
    so results are bit-deterministic.
    """
    placements = Scheduler(spec).schedule(jobs)
    cluster, samples = _run_jobs_on_cluster(spec, placements)
    results = [_job_result(p, samples[p.job_id], cluster)
               for p in placements]
    if solo_baseline:
        for placement, shared in zip(placements, results):
            solo_cluster, solo_samples = _run_jobs_on_cluster(
                spec, [placement])
            solo = _job_result(placement, solo_samples[placement.job_id],
                               solo_cluster)
            shared.slowdown = (shared.makespan_us / solo.makespan_us
                               if solo.makespan_us > 0.0 else 1.0)
    return TenancyResult(
        spec=spec,
        jobs=results,
        cluster=cluster,
        finished_at=cluster.sim.now,
        sim_counters=dict(cluster.sim.counters()),
    )
