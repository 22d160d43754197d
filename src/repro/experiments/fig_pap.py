"""fig_pap — allreduce under process-arrival patterns (repro.workload).

Beyond the paper: the reproduction's ab/nab engines finally meet
algorithms *designed* for imbalanced arrivals — Proficz's sorted-arrival
(SRA) and pre-reduced (PRA) PAP-aware allreduce variants
(arXiv:1804.05349), lowered from the workload layer's arrival oracle and
executed through the schedule interpreter.  The sweep crosses arrival
pattern x imbalance (kappa) x algorithm x topology and produces the
crossover: with near-synchronous arrivals (constant pattern, kappa ~ 0)
the collective dominates and application-bypass wins — PRA's O(n)
arrival chain loses badly; once one straggler group dominates (bursty,
kappa >> 1), SRA/PRA overlap almost the whole reduction with the
stragglers' delay and overtake ab.
"""

from __future__ import annotations

from typing import Sequence

from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import WorkloadParams
from ..orchestrate.points import (FATTREE_4, SEGMENTED, ConfigSpec,
                                  SweepPoint)
from .common import ExperimentOutput

#: (pattern tag, WorkloadParams) — the kappa axis: constant arrivals are
#: perfectly balanced (kappa = 0); the bursty straggler group pushes the
#: mean spread far past one collective latency (kappa >> 1).
PATTERNS = (
    ("constant", WorkloadParams(pattern="constant", scale_us=25.0)),
    ("bursty", WorkloadParams(pattern="bursty", scale_us=1500.0,
                              jitter_us=50.0, straggler_frac=0.25)),
)
ALGOS = ("nab", "ab", "pipelined", "sra", "pra")
#: Topology axis: the ideal crossbar and a 4-hosts-per-switch fat tree.
TOPOLOGIES = (
    ("crossbar", None),
    ("fattree", FATTREE_4),
)


def run(*, size: int = 16, elements: int = 512,
        patterns: Sequence = PATTERNS, topologies: Sequence = TOPOLOGIES,
        iterations: int, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    workloads, nets = dict(patterns), dict(topologies)

    def point(topo: str, pattern: str, algo: str) -> SweepPoint:
        # The pipelined variant arms PipelineParams (512 doubles -> two
        # 2 KiB segments); the schedule-driven variants execute
        # whole-message by design.
        return SweepPoint(
            experiment=f"fig_pap-{pattern}-{algo}", kind="pap",
            config=ConfigSpec("quiet", size, seed, net=nets[topo],
                              workload=workloads[pattern],
                              pipeline=(SEGMENTED if algo == "pipelined"
                                        else None)),
            build="ab" if algo in ("ab", "pipelined") else "nab",
            elements=elements, iterations=iterations, warmup=1,
            options={"algo": algo}, collect_invariants=True)

    cells = sweep({"topo": tuple(nets), "pattern": tuple(workloads),
                   "algo": ALGOS}, point, jobs=jobs, progress=progress)

    def makespan(topo: str, pattern: str, algo: str) -> float:
        return cells[topo, pattern, algo].metrics["avg_makespan_us"]

    out = ExperimentOutput("fig_pap", points=cells.points)
    for topo in nets:
        # X axis is the measured imbalance factor of each pattern (same
        # for every algorithm of a pattern — it describes the trace).
        kappa = {pattern: cells[topo, pattern, "ab"].metrics.get(
                     "arrival_kappa", 0.0) for pattern in workloads}
        table = Table(
            f"fig_pap: allreduce makespan (us) vs arrival imbalance "
            f"kappa ({', '.join(workloads)}), {topo}, n={size}, "
            f"{elements} elements", "kappa",
            [round(k, 2) for k in kappa.values()])
        cells.fill(table, "avg_makespan_us", along="pattern",
                   label="{algo}", topo=topo)
        for algo in ("sra", "pra"):
            table.factor_series(f"ab/{algo}", "ab", algo)
        out.tables.append(table)

        for pattern in workloads:
            ab = makespan(topo, pattern, "ab")
            pap_aware = {algo: makespan(topo, pattern, algo)
                         for algo in ("sra", "pra")}
            best_algo = min(pap_aware, key=pap_aware.get)
            best = pap_aware[best_algo]
            winner = "ab" if ab <= best else best_algo
            # Balanced arrivals favour ab, a dominant straggler group
            # (kappa > 1) the PAP-aware orders.
            out.claim(
                f"{topo}/{pattern} (kappa={kappa[pattern]:.2f}): ab "
                f"{ab:.1f}us vs best PAP-aware ({best_algo}) {best:.1f}us "
                f"-> {winner} wins ({ab / best:.2f}x)",
                (winner == "ab") == (kappa[pattern] <= 1.0))

    out.claim(f"invariant violations across the sweep: {cells.violations()}",
              cells.violations() == 0)
    return out
