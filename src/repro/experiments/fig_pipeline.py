"""fig_pipeline — segmented, pipelined collectives (repro.pipeline).

Beyond the paper: its AB reduce is eager and whole-message, so an
internal node folds a child's contribution only once the entire message
has arrived.  ``repro.pipeline`` cuts large messages into segments and
runs one AB reduce per segment (cut-through reduction; DESIGN.md §11).
This sweep maps where that pays: segment size x message size x build x
tree shape, reporting reduction latency plus the pipeline effort
counters (``segments_sent``, ``segments_folded_async``,
``pipeline_stalls``, ``inflight_hwm``) in BENCH_fig_pipeline.json.

Headline: on large messages the pipelined AB build beats whole-message
AB on every shape, deepest trees (chain) gaining the most; small
messages are untouched because single-chunk plans decline bit-exactly.
"""

from __future__ import annotations

from typing import Sequence

from ..config import MpiParams, PipelineParams
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..orchestrate.runner import run_points
from ..bench.report import Table
from .common import ExperimentOutput

#: Segment-size axis in bytes; 0 = whole-message baseline (no override,
#: so its BENCH variant tag matches a pipeline-free checkout).
SEGMENT_SIZES = (0, 1024, 2048)
#: Message-size axis in 8-byte elements: 1 KiB stays single-chunk at
#: every armed segment size above; 4/8 KiB segment into 2..8 chunks.
MSG_SIZES = (128, 512, 1024)
TREE_SHAPES = ("binomial", "chain")
BUILDS = ("nab", "ab")


def _spec(size: int, seed: int, shape: str, seg: int) -> ConfigSpec:
    pipeline = PipelineParams(segment_size_bytes=seg) if seg else None
    mpi = MpiParams(tree_shape=shape) if shape != "binomial" else None
    return ConfigSpec("paper", size, seed, mpi=mpi, pipeline=pipeline)


def build_points(*, size: int = 16,
                 segment_sizes: Sequence[int] = SEGMENT_SIZES,
                 msg_sizes: Sequence[int] = MSG_SIZES,
                 shapes: Sequence[str] = TREE_SHAPES,
                 iterations: int = 60, seed: int = 1,
                 collect_invariants: bool = True) -> list[SweepPoint]:
    """The grid, in the deterministic order :func:`run`'s cursor expects."""
    return [
        SweepPoint(
            experiment="fig_pipeline", kind="latency",
            config=_spec(size, seed, shape, seg),
            build=build, elements=elements, iterations=iterations,
            collect_invariants=collect_invariants)
        for shape in shapes
        for build in BUILDS
        for seg in segment_sizes
        for elements in msg_sizes
    ]


def run(*, size: int = 16, segment_sizes: Sequence[int] = SEGMENT_SIZES,
        msg_sizes: Sequence[int] = MSG_SIZES,
        shapes: Sequence[str] = TREE_SHAPES,
        iterations: int = 60, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    points = build_points(size=size, segment_sizes=segment_sizes,
                          msg_sizes=msg_sizes, shapes=shapes,
                          iterations=iterations, seed=seed)
    results = run_points(points, jobs=jobs, progress=progress)

    tables = []
    cursor = iter(results)
    headline = []
    effort = {"segments_sent": 0, "segments_folded_async": 0,
              "pipeline_stalls": 0, "inflight_hwm": 0}
    for shape in shapes:
        table = Table(
            f"fig_pipeline: reduce latency (us) vs message size, "
            f"{shape} tree, n={size}", "elements", list(msg_sizes))
        series = {}
        for build in BUILDS:
            for seg in segment_sizes:
                cell = [next(cursor) for _ in msg_sizes]
                tag = f"{build}-seg{seg}" if seg else f"{build}-whole"
                series[(build, seg)] = cell
                table.add_series(
                    tag, [r.metrics["avg_latency_us"] for r in cell])
                for r in cell:
                    for key in effort:
                        val = int(r.counters.get(key, 0))
                        effort[key] = (max(effort[key], val)
                                       if key == "inflight_hwm"
                                       else effort[key] + val)
        for seg in segment_sizes:
            if seg:
                table.factor_series(f"ab speedup seg{seg}",
                                    "ab-whole", f"ab-seg{seg}")
        tables.append(table)
        whole = series[("ab", 0)][-1].metrics["avg_latency_us"]
        best_seg = min((s for s in segment_sizes if s),
                       key=lambda s:
                       series[("ab", s)][-1].metrics["avg_latency_us"])
        best = series[("ab", best_seg)][-1].metrics["avg_latency_us"]
        headline.append(
            f"{shape}: {msg_sizes[-1]} elements, ab whole {whole:.1f}us -> "
            f"seg{best_seg} {best:.1f}us ({whole / best:.2f}x)")

    out = ExperimentOutput("fig_pipeline", tables, points=results)
    out.notes.extend(headline)
    out.notes.append(
        f"pipeline effort: {effort['segments_sent']} segments sent, "
        f"{effort['segments_folded_async']} folded asynchronously, "
        f"{effort['pipeline_stalls']} window stalls, "
        f"in-flight high-water mark {effort['inflight_hwm']}")
    violations = sum((r.invariant_report or {}).get("violation_count", 0)
                     for r in results)
    out.notes.append(
        f"invariant violations across the sweep (incl. INV-SEGMENT): "
        f"{violations}")
    return out
