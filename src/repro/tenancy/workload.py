"""The per-rank program every tenant job runs.

One generator body serves both worlds: under the tenancy service each
rank's :class:`~repro.mpich.rank.MpiRank` is built on the job's
communicator, so its default communicator *is* the job's, and under the legacy
single-job path (``repro.runtime.run_program``) the default communicator
is the world — the code is identical either way, which is what the
solo-job bit-identity test in ``tests/integration`` leans on.

Protocol per iteration (the cpu_util benchmark's shape, minus the
catch-up subtraction — here we measure the *collective call itself*):

    job barrier
    busy-loop( injected arrival skew + natural noise )   # interruptible
    t0 ... collective ... t1                             # latency sample

Skew and noise draw from the node's named RNG streams keyed by *world*
slot — slots are exclusive to one job, so streams are per-job disjoint
by construction and adding a co-tenant never perturbs another job's
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bench.skew import SkewModel
from ..mpich.operations import SUM
from ..sim.process import Trigger, WaitFor
from .spec import JobSpec


@dataclass
class JobRankSample:
    """What one rank of one job hands back."""

    job_rank: int
    world_rank: int
    #: Virtual time the rank started its first iteration (post-arrival).
    start_us: float
    #: Virtual time the rank left the job's closing barrier.
    end_us: float
    #: Per-measured-iteration collective latency (us).
    latencies: list = field(default_factory=list)
    #: Collective results that checked out numerically.
    checks: int = 0


def job_program(mpi, job: JobSpec):
    """Generator body for one rank of ``job`` (``mpi``'s default
    communicator is the job's communicator)."""
    comm = mpi.comm_world
    jrank = comm.rank_of_world(mpi.rank)
    if job.arrival_us > 0.0:
        # Passive sleep until the job arrives — no CPU billed, so an
        # early co-tenant never sees phantom contention from jobs that
        # have not arrived yet.
        arrive = Trigger()
        mpi.sim.at(job.arrival_us, arrive.fire)
        yield WaitFor(arrive)
    start = mpi.now

    skew_model = SkewModel(mpi.node.rng, mpi.node.config.noise,
                           job.max_skew_us)
    data = np.full(job.elements, float(jrank + 1), dtype=np.float64)
    n = comm.size
    expected = np.full(job.elements, n * (n + 1) / 2)
    sample = JobRankSample(job_rank=jrank, world_rank=mpi.rank,
                           start_us=start, end_us=start)
    total_iters = job.warmup + job.iterations
    for it in range(total_iters):
        yield from mpi.barrier()
        skew = skew_model.skew_delay(mpi.rank, it)
        noise = skew_model.noise_delay(mpi.rank, it)
        yield from mpi.compute(skew + noise)
        t0 = mpi.now
        ok = True
        if job.collective == "reduce":
            result = yield from mpi.reduce(data, op=SUM, root=0)
            if jrank == 0:
                ok = np.array_equal(result, expected)
        elif job.collective == "allreduce":
            result = yield from mpi.allreduce(data, op=SUM)
            ok = np.array_equal(result, expected)
        elif job.collective == "bcast":
            payload = data if jrank == 0 else None
            result = yield from mpi.bcast(payload, root=0,
                                          count=job.elements,
                                          dtype=np.float64)
            ok = np.array_equal(result, np.ones(job.elements))
        elif job.collective == "barrier":
            yield from mpi.barrier()
        else:  # pragma: no cover - JobSpec.validate rejects this earlier
            raise ValueError(f"unknown collective {job.collective!r}")
        t1 = mpi.now
        if not ok:
            raise AssertionError(
                f"job {job.name!r} rank {jrank} iteration {it}: "
                f"bad {job.collective} result")
        sample.checks += 1
        if it >= job.warmup:
            sample.latencies.append(t1 - t0)
    # Closing barrier: the job's makespan is when its *last* rank is
    # done, observed identically by every rank.
    yield from mpi.barrier()
    sample.end_us = mpi.now
    return sample
