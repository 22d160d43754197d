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

from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import MpiParams, PipelineParams
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import ConfigSpec, SweepPoint
from .common import ExperimentOutput, claim_segmentation

#: Segment-size axis in bytes; 0 = whole-message baseline (no override,
#: so its BENCH variant tag matches a pipeline-free checkout).
SEGMENT_SIZES = (0, 1024, 2048)
#: Message-size axis in 8-byte elements: 1 KiB stays single-chunk at
#: every armed segment size above; 4/8 KiB segment into 2..8 chunks.
MSG_SIZES = (128, 512, 1024)
TREE_SHAPES = ("binomial", "chain")


def _spec(size: int, seed: int, shape: str, seg: int) -> ConfigSpec:
    pipeline = PipelineParams(segment_size_bytes=seg) if seg else None
    mpi = MpiParams(tree_shape=shape) if shape != "binomial" else None
    return ConfigSpec("paper", size, seed, mpi=mpi, pipeline=pipeline)


def run(*, size: int = 16, segment_sizes: Sequence[int] = SEGMENT_SIZES,
        msg_sizes: Sequence[int] = MSG_SIZES,
        shapes: Sequence[str] = TREE_SHAPES,
        iterations: int, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    cells = sweep(
        {"shape": shapes, "build": BUILD_TAGS, "seg": segment_sizes,
         "elements": msg_sizes},
        lambda shape, build, seg, elements: SweepPoint(
            experiment="fig_pipeline", kind="latency",
            config=_spec(size, seed, shape, seg),
            build=build, elements=elements, iterations=iterations,
            collect_invariants=True),
        jobs=jobs, progress=progress)

    out = ExperimentOutput("fig_pipeline", points=cells.points)
    for shape in shapes:
        table = Table(
            f"fig_pipeline: reduce latency (us) vs message size, "
            f"{shape} tree, n={size}", "elements", msg_sizes)
        latency = {(build, seg): cells.series(
                       "avg_latency_us", along="elements", shape=shape,
                       build=build, seg=seg)
                   for build in BUILD_TAGS for seg in segment_sizes}
        for (build, seg), series in latency.items():
            table.add_series(
                f"{build}-seg{seg}" if seg else f"{build}-whole", series)
        for seg in filter(None, segment_sizes):
            table.factor_series(f"ab speedup seg{seg}",
                                "ab-whole", f"ab-seg{seg}")
            claim_segmentation(
                out, f"{shape}: ", seg, msg_sizes,
                {build: latency[build, 0] for build in BUILD_TAGS},
                {build: latency[build, seg] for build in BUILD_TAGS})
        out.tables.append(table)

    def total(counter: str) -> int:
        return sum(int(r.counters.get(counter, 0)) for r in cells.points)
    hwm = max(int(r.counters.get("inflight_hwm", 0)) for r in cells.points)
    out.notes.append(
        f"pipeline effort: {total('segments_sent')} segments sent, "
        f"{total('segments_folded_async')} folded asynchronously, "
        f"{total('pipeline_stalls')} window stalls, "
        f"in-flight high-water mark {hwm}")
    out.claim(f"invariant violations across the sweep (incl. INV-SEGMENT): "
              f"{cells.violations()}", cells.violations() == 0)
    return out
