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
from ..bench.sweep import BUILD_TAGS, sweep
from ..config import PipelineParams
from ..orchestrate.points import ConfigSpec, SweepPoint
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
    gaps = np.asarray(out.tables[0]._find("ab-nab gap").values)
    out.notes.append(
        f"ab-nab latency gap across sizes: min {gaps.min():.1f}us, "
        f"max {gaps.max():.1f}us, mean {gaps.mean():.1f}us "
        "(paper: positive and fairly constant)")
    nab = latency(base, "nab")
    out.notes.append(
        f"nab latency grows with size: {nab[0]:.1f}us at "
        f"{element_sizes[0]} elements -> {nab[-1]:.1f}us at "
        f"{element_sizes[-1]} elements")
    if 0 in segment_sizes:
        largest = element_sizes[-1]
        whole_ab = cells[0, "ab", largest].metrics["avg_latency_us"]
        for seg in segment_sizes:
            if not seg:
                continue
            piped_ab = cells[seg, "ab", largest].metrics["avg_latency_us"]
            out.notes.append(
                f"segment {seg}B at {largest} elements: ab "
                f"{piped_ab:.1f}us vs whole-message {whole_ab:.1f}us "
                f"({whole_ab / piped_ab:.2f}x)")
    return out
