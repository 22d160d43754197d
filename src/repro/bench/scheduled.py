"""Latency benchmark for schedule-driven collectives (repro.schedule).

Lowers a collective to a :class:`~repro.schedule.ir.Schedule`, optionally
applies rewrite passes, validates the result, and executes it through the
interpreter (:mod:`repro.core.interpreter`) on every rank — the measurement
loop mirrors :mod:`repro.bench.latency` (barrier, natural noise, timed
collective), with the root timing call-to-result.

This is what ``orchestrate smoke schedule``, the ``fig_schedule``
experiment and the autotuner all run, so pass-on vs pass-off comparisons
and tuning sweeps share one measurement path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import ClusterConfig
from ..mpich.operations import SUM
from ..mpich.rank import MpiBuild
from ..runtime.program import run_program
from ..schedule.ir import Schedule
from ..schedule.lower import lower
from ..schedule.passes import apply_passes
from ..schedule.table import config_tree_shape, resolve_pipeline_params
from .skew import SkewModel
from .stats import BenchResult


@dataclass
class ScheduledResult(BenchResult):
    """Output of one scheduled-collective benchmark run."""

    BENCH_METRICS = ("avg_latency_us", "median_latency_us", "nseg", "steps",
                     "signals")

    nseg: int
    #: Total steps across all ranks of the executed schedule.
    steps: int
    avg_latency_us: float
    median_latency_us: float
    signals: int
    sim_counters: dict = field(default_factory=dict)


def build_schedule(config: ClusterConfig, *, lowering: str,
                   passes: Sequence = (), elements: int,
                   dtype=np.float64) -> Schedule:
    """Lower + rewrite the schedule this config would execute.

    With ``pipeline_segments`` among the passes, the collective is lowered
    whole-message and the pass produces the segmentation (proving the
    rewrite, not the lowering, is what pipelines it); otherwise the
    config-planned segment count is lowered directly.
    """
    from ..pipeline.segmenter import plan_segments
    nbytes = elements * np.dtype(dtype).itemsize
    shape = config_tree_shape(config, nbytes)
    pparams = config.pipeline
    if pparams.segment_size_bytes == "auto":
        pparams = resolve_pipeline_params(config, nbytes)
    probe = np.zeros(elements, dtype=dtype)
    segments = plan_segments(pparams, probe)
    nseg = 0 if segments is None else len(segments)

    pass_names = [spec if isinstance(spec, str) else spec[0]
                  for spec in passes]
    if "pipeline_segments" in pass_names:
        if nseg < 2:
            raise ValueError(
                "pipeline_segments requested but the config plans %d "
                "segment(s) for %d bytes; arm PipelineParams" % (nseg, nbytes))
        schedule = lower(lowering, shape, config.size, nseg=0)
        specs = [("pipeline_segments", {"nseg": nseg})
                 if name == "pipeline_segments" else spec
                 for name, spec in zip(pass_names, passes)]
        schedule = apply_passes(schedule, specs)
    else:
        schedule = lower(lowering, shape, config.size, nseg=nseg)
        schedule = apply_passes(schedule, passes)
    return schedule.validate()


def scheduled_benchmark(config: ClusterConfig, build: MpiBuild, *,
                        lowering: str = "reduce.nab",
                        passes: Sequence = (), elements: int = 1024,
                        iterations: int = 20, warmup: int = 2
                        ) -> ScheduledResult:
    """Time a schedule-driven collective; the root measures call-to-result."""
    from ..core.interpreter import execute_schedule
    size = config.size
    if size < 2:
        raise ValueError("scheduled benchmark needs at least two nodes")
    if iterations < 1:
        raise ValueError("need at least one measured iteration")
    schedule = build_schedule(config, lowering=lowering, passes=passes,
                              elements=elements)
    expected = np.full(elements, size * (size + 1) / 2)
    total_iters = warmup + iterations
    is_reduce = schedule.collective == "reduce"

    def program(mpi):
        skew_model = SkewModel(mpi.node.rng, config.noise, 0.0)
        rank = mpi.rank
        data = np.full(elements, float(rank + 1), dtype=np.float64)
        samples: list[float] = []
        for it in range(total_iters):
            yield from mpi.barrier()
            noise = skew_model.noise_delay(rank, it)
            yield from mpi.compute(noise)
            t0 = mpi.now
            result = yield from execute_schedule(
                mpi, schedule, data, SUM, comm=mpi.comm_world)
            if rank == 0:
                if it >= warmup:
                    samples.append(mpi.now - t0)
                if result is None or not np.array_equal(result, expected):
                    raise AssertionError(
                        f"iteration {it}: schedule produced "
                        f"{None if result is None else result.flat[0]}, "
                        f"expected {expected[0]}")
            elif not is_reduce and not np.array_equal(result, expected):
                raise AssertionError(
                    f"iteration {it}: rank {rank} got {result.flat[0]}, "
                    f"expected {expected[0]}")
        return samples if rank == 0 else None

    out = run_program(config, program, build=build)
    samples = np.asarray(out.results[0], dtype=np.float64)
    return ScheduledResult(
        nseg=schedule.nseg,
        steps=schedule.step_count,
        avg_latency_us=float(samples.mean()),
        median_latency_us=float(np.median(samples)),
        signals=out.cluster.total_signals(),
        sim_counters=dict(out.sim_counters()),
    )
