"""Synthetic application kernels for application-based evaluation.

The paper's future work (Sec. VII): "We also intend to perform
application-based evaluations to better understand how application-bypass
solutions perform under real loads."  These kernels model the communication
skeletons of the workloads the paper's introduction motivates — iterative
solvers and analysis loops where a reduction punctuates unevenly
distributed computation.

Each kernel is a rank-program factory: call it with parameters and pass the
result to :func:`repro.runtime.run_program`.  Every kernel returns, per
rank, a :class:`KernelStats` with the time spent blocked in collectives —
the quantity application bypass attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mpich.operations import MAX, SUM


@dataclass
class KernelStats:
    """Per-rank outcome of one kernel run."""

    rank: int
    iterations: int
    collective_us: float          # wall time inside collective calls
    wall_us: float                # total kernel wall time
    checks: int = 0               # verified global values


def jacobi(iterations: int = 25, *, base_compute_us: float = 80.0,
           imbalance: float = 0.5, elements: int = 1):
    """Jacobi-style smoother: per-iteration local compute whose cost varies
    *structurally* across ranks (domain imbalance), followed by a residual
    reduction to rank 0.
    """

    def program(mpi):
        weight = 1.0 + imbalance * ((mpi.rank % 4) / 3.0)
        my_compute = base_compute_us * weight
        stats = KernelStats(mpi.rank, iterations, 0.0, 0.0)
        block = np.linspace(1.0, 2.0, 64) * (mpi.rank + 1)
        t_start = mpi.now
        for _ in range(iterations):
            block = 0.5 * (block + np.roll(block, 1))
            yield from mpi.compute(my_compute)
            residual = np.full(elements, float(np.abs(block).sum()))
            t0 = mpi.now
            result = yield from mpi.reduce(residual, op=SUM, root=0)
            stats.collective_us += mpi.now - t0
            if mpi.rank == 0:
                assert result is not None and result[0] > 0.0
                stats.checks += 1
        # drain bypassed work so the run ends quiescent
        yield from mpi.compute(base_compute_us * 4 + 400.0)
        yield from mpi.barrier()
        stats.wall_us = mpi.now - t_start
        return stats

    return program


def conjugate_gradient(iterations: int = 20, *, n_local: int = 128,
                       matvec_us: float = 120.0, jitter: float = 0.3):
    """CG-skeleton: each iteration does one (imbalanced) local mat-vec and
    two global dot products (allreduce of one double) — the classic
    reduction-bound solver loop.
    """

    def program(mpi):
        rng = mpi.rng_stream("kernel/cg")
        x = np.linspace(0.0, 1.0, n_local) + mpi.rank
        r = np.ones(n_local)
        stats = KernelStats(mpi.rank, iterations, 0.0, 0.0)
        t_start = mpi.now
        for _ in range(iterations):
            cost = matvec_us * (1.0 + jitter * float(rng.random()))
            yield from mpi.compute(cost)
            local_dot = np.array([float(r @ r)])
            t0 = mpi.now
            rr = yield from mpi.allreduce(local_dot, op=SUM)
            stats.collective_us += mpi.now - t0
            alpha = 1.0 / (1.0 + rr[0])
            x = x + alpha * r
            r = r * (1.0 - alpha)
            local_dot2 = np.array([float(x @ r)])
            t0 = mpi.now
            yield from mpi.allreduce(local_dot2, op=SUM)
            stats.collective_us += mpi.now - t0
            stats.checks += 1
        yield from mpi.compute(500.0)
        yield from mpi.barrier()
        stats.wall_us = mpi.now - t_start
        return stats

    return program


def particle_timestep(iterations: int = 20, *, base_compute_us: float = 60.0,
                      hotspot_prob: float = 0.25,
                      hotspot_extra_us: float = 250.0,
                      rebalance_every: int = 0):
    """Particle-style load imbalance: most steps are cheap, but a random
    rank occasionally owns a "hotspot" region and runs long — the random
    skew pattern of the paper's CPU-utilization benchmark, embedded in an
    application loop ending each step with a global max-density reduction.

    ``rebalance_every > 0`` adds a blocking broadcast of rebalancing info
    every that-many steps.  This is a deliberately *adversarial* variant:
    a blocking downstream collective re-synchronizes the ranks and
    reclaims most of the skew the bypassed reduction just avoided — the
    same observation that leads the paper (Sec. II) to demand split-phase
    treatment for synchronizing operations.
    """

    def program(mpi):
        rng = mpi.rng_stream("kernel/particles")
        stats = KernelStats(mpi.rank, iterations, 0.0, 0.0)
        t_start = mpi.now
        for step in range(iterations):
            cost = base_compute_us
            if float(rng.random()) < hotspot_prob:
                cost += hotspot_extra_us * float(rng.random())
            yield from mpi.compute(cost)
            density = np.array([cost + mpi.rank])
            t0 = mpi.now
            result = yield from mpi.reduce(density, op=MAX, root=0)
            stats.collective_us += mpi.now - t0
            if mpi.rank == 0:
                assert result is not None
                stats.checks += 1
            if rebalance_every and step % rebalance_every == rebalance_every - 1:
                t0 = mpi.now
                plan = yield from mpi.bcast(
                    np.array([float(step)]) if mpi.rank == 0 else None,
                    root=0, count=1)
                stats.collective_us += mpi.now - t0
                assert plan[0] == float(step)
        yield from mpi.compute(base_compute_us + hotspot_extra_us + 400.0)
        yield from mpi.barrier()
        stats.wall_us = mpi.now - t_start
        return stats

    return program


def cg_pipelined(iterations: int = 20, *, n_local: int = 128,
                 matvec_us: float = 120.0, jitter: float = 0.3):
    """Pipelined-CG skeleton: the cure for :func:`conjugate_gradient`'s
    synchronization cost, using the split-phase reduction extension.

    The dot-product reduction is *started* before the mat-vec and waited
    on after it, so the whole reduce tree rides along with the compute —
    the communication/computation overlap the paper's Sec. II time lines
    promise, applied to the solver pattern that blocked on it.  Requires
    the application-bypass build (``MpiBuild.AB``).
    """

    def program(mpi):
        from ..core.split_phase import SplitPhaseReduce
        if mpi.ab_engine is None:
            raise RuntimeError("cg_pipelined requires the AB build")
        split = SplitPhaseReduce(mpi.ab_engine)
        rng = mpi.rng_stream("kernel/cg")
        x = np.linspace(0.0, 1.0, n_local) + mpi.rank
        r = np.ones(n_local)
        stats = KernelStats(mpi.rank, iterations, 0.0, 0.0)
        t_start = mpi.now
        for _ in range(iterations):
            local_dot = np.array([float(r @ r)])
            t0 = mpi.now
            handle = yield from split.start(local_dot, SUM, 0,
                                            mpi.comm_world)
            stats.collective_us += mpi.now - t0
            cost = matvec_us * (1.0 + jitter * float(rng.random()))
            yield from mpi.compute(cost)            # overlaps the reduce
            t0 = mpi.now
            reduced = yield from split.wait(handle)
            if mpi.rank == 0:
                rr = yield from mpi.bcast(reduced, root=0)
            else:
                rr = yield from mpi.bcast(None, root=0, count=1)
            stats.collective_us += mpi.now - t0
            alpha = 1.0 / (1.0 + rr[0])
            x = x + alpha * r
            r = r * (1.0 - alpha)
            # The second dot product has a true dependency on the update,
            # so it stays a blocking allreduce — same as plain CG.  The
            # pipelining win is hiding the *first* reduction's tree.
            local_dot2 = np.array([float(x @ r)])
            t0 = mpi.now
            yield from mpi.allreduce(local_dot2, op=SUM)
            stats.collective_us += mpi.now - t0
            stats.checks += 1
        yield from mpi.compute(500.0)
        yield from mpi.barrier()
        stats.wall_us = mpi.now - t_start
        return stats

    return program


KERNELS = {
    "jacobi": jacobi,
    "cg": conjugate_gradient,
    "particles": particle_timestep,
}

#: Kernels that only run on the application-bypass build.
AB_ONLY_KERNELS = {
    "cg_pipelined": cg_pipelined,
}
