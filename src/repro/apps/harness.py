"""Application-evaluation harness: run a kernel under both builds and
compare where the CPU time went."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ClusterConfig
from ..mpich.rank import MpiBuild
from ..runtime.program import run_program
from .kernels import KERNELS, KernelStats


@dataclass
class AppComparison:
    """Both builds' outcomes for one kernel on one cluster."""

    kernel: str
    size: int
    default_stats: list[KernelStats]
    ab_stats: list[KernelStats]

    def nonroot_mean_collective_us(self, build: MpiBuild) -> float:
        stats = (self.default_stats if build is MpiBuild.DEFAULT
                 else self.ab_stats)
        return float(np.mean([s.collective_us for s in stats
                              if s.rank != 0]))

    @property
    def blocking_improvement(self) -> float:
        """Factor by which ab cuts non-root time blocked in collectives."""
        ab = self.nonroot_mean_collective_us(MpiBuild.AB)
        nab = self.nonroot_mean_collective_us(MpiBuild.DEFAULT)
        return nab / ab if ab > 0 else float("inf")

    def summary(self) -> str:
        nab = self.nonroot_mean_collective_us(MpiBuild.DEFAULT)
        ab = self.nonroot_mean_collective_us(MpiBuild.AB)
        return (f"{self.kernel:>10} on {self.size:>2} ranks: non-root "
                f"collective blocking {nab:8.1f}us -> {ab:8.1f}us "
                f"({self.blocking_improvement:.1f}x)")


def compare_builds(kernel: str, config: ClusterConfig,
                   **kernel_kwargs) -> AppComparison:
    """Run ``kernel`` under DEFAULT and AB builds on ``config``."""
    factory = KERNELS[kernel]
    runs = {}
    for build in (MpiBuild.DEFAULT, MpiBuild.AB):
        out = run_program(config, factory(**kernel_kwargs), build=build)
        runs[build] = out.results
        for stats in out.results:
            if stats.rank == 0:
                assert stats.checks > 0, f"{kernel}: root verified nothing"
    return AppComparison(
        kernel=kernel,
        size=config.size,
        default_stats=runs[MpiBuild.DEFAULT],
        ab_stats=runs[MpiBuild.AB],
    )
