"""Fig. 10 — reduction latency vs. message size, 32 nodes, no injected skew.

Paper headline: both builds' latency grows with message size; the
application-bypass build pays a signal-related latency penalty that
"stabilizes and remains fairly constant as the number of elements
increases".

Beyond the paper, the sweep is routed through a segment-size axis
(``--segment-sizes``): each nonzero entry reruns the grid with that
``PipelineParams.segment_size_bytes`` so the crossover where segmented,
pipelined collectives (repro.pipeline) start beating the whole-message
path becomes visible.  Segment size 0 maps to *no* pipeline override —
not a disarmed block — so the baseline's BENCH variant tags stay
bit-identical to a pipeline-free checkout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bench.sweep import latency_vs_message_size
from ..config import PipelineParams
from ..orchestrate.points import ConfigSpec
from .common import ExperimentOutput, PAPER_MSG_SIZES

#: The one experiment-specific CLI flag (``common.main`` adds each entry
#: to the parser and passes the parsed value to :func:`run` by dest name).
EXTRA_ARGUMENTS = (
    ("--segment-sizes",
     dict(type=int, nargs="*", default=[0],
          help="PipelineParams.segment_size_bytes values to sweep "
               "(0 = whole-message baseline; e.g. 0 2048)")),
)


def run(*, size: int = 32, element_sizes: Sequence[int] = PAPER_MSG_SIZES,
        segment_sizes: Sequence[int] = (0,),
        iterations: int = 120, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    tables = []
    points = []
    raw_by_segment = {}
    for seg in segment_sizes:
        pipeline = (PipelineParams(segment_size_bytes=seg)
                    if seg else None)
        sweep = latency_vs_message_size(
            ConfigSpec("paper", size, seed, pipeline=pipeline),
            element_sizes=element_sizes, iterations=iterations, jobs=jobs,
            experiment="fig10", progress=progress)
        table = sweep.table
        table.title = "Fig 10: " + table.title + (
            f" [segment {seg}B]" if seg else "")
        tables.append(table)
        points.extend(sweep.points)
        raw_by_segment[seg] = table
    out = ExperimentOutput("fig10", tables, points=points)

    base = tables[0]
    gaps = np.asarray(base._find("ab-nab gap").values)
    out.notes.append(
        f"ab-nab latency gap across sizes: min {gaps.min():.1f}us, "
        f"max {gaps.max():.1f}us, mean {gaps.mean():.1f}us "
        "(paper: positive and fairly constant)")
    nab = base._find("nab").values
    out.notes.append(
        f"nab latency grows with size: {nab[0]:.1f}us at "
        f"{element_sizes[0]} elements -> {nab[-1]:.1f}us at "
        f"{element_sizes[-1]} elements")
    if 0 in raw_by_segment:
        whole_ab = raw_by_segment[0]._find("ab").values[-1]
        for seg in segment_sizes:
            if not seg:
                continue
            piped_ab = raw_by_segment[seg]._find("ab").values[-1]
            out.notes.append(
                f"segment {seg}B at {element_sizes[-1]} elements: ab "
                f"{piped_ab:.1f}us vs whole-message {whole_ab:.1f}us "
                f"({whole_ab / piped_ab:.2f}x)")
    return out
