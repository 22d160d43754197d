"""fig_faults — reduce completion under injected faults (repro.faults).

The paper measures application bypass on a healthy testbed; this
experiment asks what the bypass protocol costs — and whether it still
finishes with the right answer — when the machine misbehaves.  Two
sweeps over the ``repro.faults`` injector registry:

1. burst packet loss at increasing rates, both builds, on the crossbar
   and the two-level fat-tree (the GM go-back-N layer must hide every
   drop bit-exactly);
2. one scenario per remaining injector (link degradation, NIC signal
   suppression, a paused rank, a crashed rank healed out of the tree),
   AB-only where the non-bypass build has no recovery path.

Every point reports the root's final reduction value against the
surviving-rank expectation and the run makespan; the fault counters land
in BENCH_fig_faults.json via ``--bench-json``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import NetParams
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import (FATTREE_4, FAULT_SCENARIOS, ConfigSpec,
                                  SweepPoint, burst_loss)
from .common import ExperimentOutput

#: Burst-loss sweep: probability that any packet starts a 3-packet burst.
RATES = (0.0, 0.01, 0.05)
TOPOLOGIES = ("crossbar", "fattree")


def run(*, size: int = 8, elements: int = 4,
        rates: Sequence[float] = RATES,
        topologies: Sequence[str] = TOPOLOGIES,
        scenarios: Mapping[str, tuple] = FAULT_SCENARIOS,
        iterations: int = 40, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    def point(build: str, **config) -> SweepPoint:
        return SweepPoint(
            experiment="fig_faults", kind="fault_reduce",
            config=ConfigSpec("paper", size, seed, **config),
            build=build, elements=elements, iterations=iterations,
            collect_invariants=True)

    loss = sweep(
        {"topo": topologies, "build": BUILD_TAGS, "rate": rates},
        lambda topo, build, rate: point(
            build,
            net=FATTREE_4 if topo == "fattree" else NetParams(topology=topo),
            faults=burst_loss(rate) if rate else None),
        jobs=jobs, progress=progress)
    injected = sweep(
        {"scenario": tuple(scenarios), "build": BUILD_TAGS},
        lambda scenario, build: (
            point(build, faults=scenarios[scenario][0])
            if build in scenarios[scenario][1] else None),
        jobs=jobs, progress=progress)

    table = Table(
        f"fig_faults: reduce makespan (us) vs burst loss rate, n={size}",
        "burst_prob", rates)
    loss.fill(table, "makespan_us", along="rate", label="{topo}-{build}")
    out = ExperimentOutput("fig_faults", [table],
                           points=loss.points + injected.points)
    for label, (_faults, builds) in scenarios.items():
        for build in builds:
            r = injected[label, build]
            extras = {k: int(v) for k, v in r.counters.items()
                      if k in ("subtrees_healed", "descriptors_timed_out",
                               "signals_suppressed", "ranks_paused")
                      and v}
            out.notes.append(
                f"{label}/{build}: makespan {r.metrics['makespan_us']:.0f}us "
                f"last={r.metrics['last_result']:g} "
                f"faults={int(r.counters.get('faults_injected', 0))}"
                + (f" {extras}" if extras else ""))
    retransmissions = sum(int(r.counters.get("retransmissions", 0))
                          for r in loss.points)
    out.notes.append(
        f"retransmissions across the loss sweep: {retransmissions}")
    wrong = sum(1 for r in out.points if not r.metrics["survivor_ok"])
    out.claim(f"points with a wrong surviving-rank result: {wrong}",
              wrong == 0)
    violations = loss.violations() + injected.violations()
    out.claim(f"invariant violations across the sweep (incl. INV-FAULT): "
              f"{violations}", violations == 0)
    return out
