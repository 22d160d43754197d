"""Fault-tolerant reduce benchmark (``repro.faults`` end-to-end driver).

Runs back-to-back ``MPI_Reduce`` iterations under a deterministic
:class:`~repro.config.FaultParams` schedule and records what the root saw.
The program is deliberately **barrier-free**: with a ``rank_crash``
schedule a barrier would hang every survivor on the dead rank, whereas a
tree reduce with ``tree_heal`` + descriptor timeouts routes around it.
A crash schedule on the default build, without descriptor timeouts, or
aimed at the root or a child of it is refused before it simulates: with no
recovery layer (the default build, the root's blocking receive), or no
timer to start it, a reduce waiting on the dead rank would deadlock.
Loss, degradation, suppression and pauses run under both builds.

Correctness model with a crash: iterations completed strictly before
``crash_at_us`` sum every rank's contribution (``expected_full``); the
iteration in flight at the crash may honestly report a partial sum (the
abandoned children are filed as INV-FAULT fault reports); iterations
started after the crash sum the survivors (``expected_survivors``).  The
result exposes the first/last root values so callers can pin both ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ClusterConfig
from ..mpich.operations import SUM
from ..mpich.rank import MpiBuild
from ..runtime.program import run_program
from ..schedule.table import config_tree_shape
from .stats import BenchResult


@dataclass
class FaultReduceResult(BenchResult):
    """Output of one fault-schedule reduce run."""

    BENCH_METRICS = ("first_result", "last_result", "completed_ranks",
                     "survivor_ok", "makespan_us", "signals")

    #: Ranks whose program ran to completion (a crashed rank never does).
    completed_ranks: int
    #: Reduce iterations the root completed (== iterations unless the
    #: root itself was the victim, which the smoke grids never do).
    root_iterations: int
    #: Root-side result of the first and last completed iteration.
    first_result: float
    last_result: float
    #: Last iteration's result is one of the two honest answers: the
    #: surviving-rank sum, or — when the final iteration collected the
    #: victim's contribution before the crash landed — the full sum.
    #: Anything else (a silently partial sum) fails.
    survivor_ok: bool
    #: Virtual time at which the last surviving rank finished — the
    #: figure-level cost axis (loss, degradation and pauses all stretch
    #: it; a healed crash stretches it by roughly one timeout).
    makespan_us: float
    #: Total NIC signals raised across the cluster.
    signals: int
    #: Full ``Simulator.counters()`` snapshot — includes the fault
    #: schedule's counters (faults_injected, retransmissions, ...) when
    #: one is armed.
    sim_counters: dict = field(default_factory=dict)


def fault_reduce_benchmark(config: ClusterConfig, build: MpiBuild, *,
                           elements: int = 4, iterations: int = 8,
                           gap_us: float = 200.0) -> FaultReduceResult:
    """Run ``iterations`` barrier-free reduces under ``config.faults``."""
    if iterations < 1:
        raise ValueError("need at least one iteration")
    size = config.size
    faults = config.faults
    if faults.crash_rank >= 0 and build is not MpiBuild.AB:
        raise ValueError(
            "a rank_crash schedule needs the ab build: the blocking "
            "default reduce has no recovery layer and would hang on the "
            "crashed rank")
    if faults.crash_rank >= 0 and faults.descriptor_timeout_us <= 0.0:
        raise ValueError(
            "a rank_crash schedule needs descriptor_timeout_us > 0: "
            "without recovery timers a descriptor waiting on the crashed "
            "rank would hang")
    if faults.crash_rank >= 0 and faults.crash_rank in (
            0, *config_tree_shape(config, elements * 8).children(0, size)):
        raise ValueError(
            "a rank_crash schedule cannot crash the root (rank 0) or a "
            "child of it: the root's blocking receive has no recovery "
            "layer, so it would hang or lose the result")

    def program(mpi):
        rank = mpi.rank
        data = np.full(elements, float(rank + 1), dtype=np.float64)
        root_values: list[float] = []
        done = 0
        for _ in range(iterations):
            result = yield from mpi.reduce(data, op=SUM, root=0)
            done += 1
            if rank == 0:
                root_values.append(float(result[0]))
            # A quiet gap lets asynchronous recovery (retransmits, healed
            # subtrees, thawed stragglers) land between iterations.
            yield from mpi.compute(gap_us)
        return done, root_values

    run = run_program(config, program, build=build)

    completed = sum(1 for r in run.results if r is not None)
    root_done, root_values = run.results[0] if run.results[0] else (0, [])
    first = float(root_values[0]) if root_values else float("nan")
    last = float(root_values[-1]) if root_values else float("nan")

    # Rank r contributes r + 1; a crashed rank's share leaves the sum.
    expected_full = float(size * (size + 1) // 2)
    crashed = (faults.crash_rank >= 0
               and faults.crash_at_us <= run.finished_at)
    expected_survivors = (expected_full - float(faults.crash_rank + 1)
                          if crashed else expected_full)
    return FaultReduceResult(
        completed_ranks=completed,
        root_iterations=root_done,
        first_result=first,
        last_result=last,
        survivor_ok=bool(root_values) and (
            last == expected_survivors
            or (crashed and last == expected_full)),
        makespan_us=float(run.finished_at),
        signals=run.cluster.total_signals(),
        sim_counters=dict(run.sim_counters()),
    )
