"""Fig. 10 — reduction latency vs. message size, 32 nodes, no injected skew.

Paper headline: both builds' latency grows with message size; the
application-bypass build pays a signal-related latency penalty that
"stabilizes and remains fairly constant as the number of elements
increases".

Beyond the paper, a second study runs sizes past its 128 elements, whole
message and at one ``PipelineParams.segment_size_bytes``: there ab
overtakes nab, and segmented, pipelined collectives (repro.pipeline) beat
the whole-message path.  Segment size 0 maps to *no* pipeline override —
not a disarmed block — so the whole-message BENCH variant tags stay
bit-identical to a pipeline-free checkout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..bench.report import Table
from ..bench.sweep import sweep
from ..cluster.node import NodeCosts
from ..config import PipelineParams
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..schedule.table import config_tree_shape
from .common import ExperimentOutput, PAPER_MSG_SIZES, claim_segmentation

#: Past the paper's sizes: message sizes (doubles) and segment sizes
#: (bytes; 0 = whole message).
PAST_PAPER_SIZES = (64, 512, 1024)
SEGMENT_SIZES = (0, 2048)


def run(*, size: int = 32, element_sizes: Sequence[int] = PAPER_MSG_SIZES,
        iterations: int, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    common = dict(size=size, seed=seed, jobs=jobs, progress=progress)
    out = latency_study("fig10", "", element_sizes, (0,),
                        iterations=iterations, **common)
    gaps = out.tables[0]._find("ab-nab gap").values
    out.notes.append(
        f"deviation: the gap narrows from a peak of {max(gaps):.1f}us to "
        f"{gaps[-1]:.1f}us at {element_sizes[-1]} elements instead of "
        "staying flat (paper); the copy nab pays per child grows with the "
        "message (see the crossing claim)")
    past = latency_study("fig10-segments", "past the paper",
                         PAST_PAPER_SIZES, SEGMENT_SIZES,
                         iterations=max(1, iterations * 4 // 5), **common)
    claim_crossing(past, ConfigSpec("paper", size, seed).build())
    out.add(past)
    return out


def latency_study(tag: str, label: str, element_sizes: Sequence[int],
                  segment_sizes: Sequence[int], *, size: int,
                  iterations: int, seed: int, jobs: int,
                  progress) -> ExperimentOutput:
    """Both builds' latency over ``element_sizes``, one table per segment
    size; the first, 0, is the whole-message base the claims read.
    ``label`` names the study in titles and claims."""
    prefix = f"{label}: " if label else ""
    cells = sweep(
        {"seg": segment_sizes, "build": BUILD_TAGS,
         "elements": element_sizes},
        lambda seg, build, elements: SweepPoint(
            experiment=tag, kind="latency",
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
            f"Fig 10{f' ({label})' if label else ''}: Total reduction "
            f"latency vs. message size ({size} nodes)"
            + (f" [segment {seg}B]" if seg else ""),
            "elements", element_sizes)
        cells.fill(table, "avg_latency_us", along="elements",
                   label="{build}", seg=seg)
        table.add_series("ab-nab gap",
                         [a - n for a, n in zip(latency(seg, "ab"),
                                                latency(seg, "nab"))])
        out.tables.append(table)

    whole = {build: latency(0, build) for build in BUILD_TAGS}
    nab, ab = whole["nab"], whole["ab"]
    out.claim(f"{prefix}latency grows with message size: nab {nab[0]:.1f} -> "
              f"{nab[-1]:.1f}us (more than 1.5x), ab {ab[0]:.1f} -> "
              f"{ab[-1]:.1f}us (more than 1.3x)",
              nab[-1] > 1.5 * nab[0] and ab[-1] > 1.3 * ab[0])
    # The paper's claim covers its own sizes; past them the whole-message
    # ab build overtakes nab (claim_crossing).
    gaps = np.asarray([gap for e, gap in zip(
        element_sizes, out.tables[0]._find("ab-nab gap").values)
        if e <= PAPER_MSG_SIZES[-1]])
    if gaps.size:
        out.claim(f"{prefix}ab pays a steady latency penalty at every size "
                  f"up to {PAPER_MSG_SIZES[-1]} elements: gap min "
                  f"{gaps.min():.1f}us, max {gaps.max():.1f}us, mean "
                  f"{gaps.mean():.1f}us, "
                  "within 2-30us (paper: positive and fairly constant)",
                  2.0 < gaps.min() and gaps.max() < 30.0)
    for seg in segment_sizes[1:]:
        claim_segmentation(out, prefix, seg, element_sizes, whole,
                           {b: latency(seg, b) for b in BUILD_TAGS})
    return out


def claim_crossing(out: ExperimentOutput, config) -> None:
    """Past the paper's sizes (``out``'s whole-message table) ab overtakes
    nab, and the gap's fall matches the growth of the copies nab's blocking
    receives make, and ab's folds skip, on the last node's path: the cost
    the two builds' per-category CPU ledgers tell apart."""
    size, table = config.size, out.tables[0]
    elements = table.x_values
    shape = config_tree_shape(config, elements[-1] * 8)
    path, rel = [], shape.parent(shape.deepest_rel(size), size)
    while rel != 0:
        path.append(rel)
        rel = shape.parent(rel, size)
    copies = [sum(NodeCosts(config.machines[r], config).copy_us(8 * e)
                  for r in path) for e in (elements[0], elements[-1])]
    gaps = table._find("ab-nab gap").values
    fall, grown = gaps[0] - gaps[-1], copies[1] - copies[0]
    out.claim("past the paper: ab overtakes nab: gap "
              + ", ".join(f"{g:.1f}us at {e}" for e, g in zip(elements, gaps))
              + f" elements.  Cause: nab copies each child's payload out of "
              f"the packet buffer, ab folds it in place (Sec. V-C); at the "
              f"{len(path)} internal nodes on the last node's path those "
              f"copies grow by {grown:.1f}us from {elements[0]} to "
              f"{elements[-1]} elements and the gap falls by {fall:.1f}us "
              "(within 25%)",
              gaps[0] > 0 > gaps[-1] and abs(fall - grown) < 0.25 * grown)
