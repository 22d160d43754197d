"""Summary statistics for benchmark sample sets.

The paper reports plain averages over 10,000 iterations; with far fewer
virtual-time iterations we attach dispersion and a normal-approximation
confidence interval so EXPERIMENTS.md claims are honest about their
resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class BenchResult:
    """What every benchmark result dataclass shares: the scalar fields it
    contributes to BENCH json and the simulator work counters of its run.

    A subclass names its BENCH metrics once in :attr:`BENCH_METRICS`; the
    orchestrator (``execute_point``) reads :meth:`metrics` and
    ``sim_counters`` and nothing else."""

    #: Field names recorded as BENCH metrics, as floats.
    BENCH_METRICS: ClassVar[tuple[str, ...]] = ()
    #: Full ``Simulator.counters()`` snapshot of the measured run (set by
    #: the subclass dataclass).
    sim_counters: dict

    def metrics(self) -> dict:
        return {name: float(getattr(self, name))
                for name in self.BENCH_METRICS}


@dataclass(frozen=True)
class SampleSummary:
    """Mean / dispersion summary of one benchmark sample set."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    #: Half-width of the ~95% confidence interval on the mean
    #: (1.96 * std / sqrt(n); normal approximation).
    ci95: float


def summarize(samples) -> SampleSummary:
    """Summarize a 1-D (or flattenable) array of samples."""
    arr = np.asarray(samples, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return SampleSummary(
        n=int(arr.size),
        mean=float(arr.mean()),
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        median=float(np.median(arr)),
        ci95=1.96 * std / float(np.sqrt(arr.size)) if arr.size > 1 else 0.0,
    )
