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

from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import PipelineParams
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import ConfigSpec, SweepPoint
from .common import ExperimentOutput, PAPER_MSG_SIZES, claim_segmentation

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
    cells = sweep(
        {"seg": segment_sizes, "build": BUILD_TAGS,
         "elements": element_sizes},
        lambda seg, build, elements: SweepPoint(
            experiment="fig10", kind="latency",
            config=ConfigSpec(
                "paper", size, seed,
                pipeline=(PipelineParams(segment_size_bytes=seg)
                          if seg else None)),
            build=build, elements=elements, iterations=iterations),
        jobs=jobs, progress=progress)

    def latency(seg: int, build: str) -> list[float]:
        return cells.series("avg_latency_us", along="elements", seg=seg,
                            build=build)

    out = ExperimentOutput("fig10", points=cells.points)
    for seg in segment_sizes:
        table = Table(
            f"Fig 10: Total reduction latency vs. message size "
            f"({size} nodes)" + (f" [segment {seg}B]" if seg else ""),
            "elements", element_sizes)
        cells.fill(table, "avg_latency_us", along="elements",
                   label="{build}", seg=seg)
        table.add_series("ab-nab gap",
                         [a - n for a, n in zip(latency(seg, "ab"),
                                                latency(seg, "nab"))])
        out.tables.append(table)

    base = segment_sizes[0]
    nab, ab = latency(base, "nab"), latency(base, "ab")
    out.claim(f"latency grows with message size: nab {nab[0]:.1f} -> "
              f"{nab[-1]:.1f}us (more than 1.5x), ab {ab[0]:.1f} -> "
              f"{ab[-1]:.1f}us (more than 1.3x)",
              nab[-1] > 1.5 * nab[0] and ab[-1] > 1.3 * ab[0])
    # The paper's claim covers its own sizes; past them the whole-message
    # ab build overtakes nab.
    gaps = np.asarray([gap for e, gap in zip(
        element_sizes, out.tables[0]._find("ab-nab gap").values)
        if e <= PAPER_MSG_SIZES[-1]])
    if gaps.size:
        out.claim(f"ab pays a steady latency penalty at every size up to "
                  f"{PAPER_MSG_SIZES[-1]} elements: gap min {gaps.min():.1f}"
                  f"us, max {gaps.max():.1f}us, mean {gaps.mean():.1f}us, "
                  "within 2-30us (paper: positive and fairly constant)",
                  2.0 < gaps.min() and gaps.max() < 30.0)
    if 0 in segment_sizes:
        whole = {build: latency(0, build) for build in BUILD_TAGS}
        for seg in filter(None, segment_sizes):
            claim_segmentation(
                out, "", seg, element_sizes, whole,
                {build: latency(seg, build) for build in BUILD_TAGS})
    return out
