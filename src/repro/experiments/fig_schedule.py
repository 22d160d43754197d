"""fig_schedule — collective schedules as data (repro.schedule).

Beyond the paper: collectives become first-class Schedule IR values that
rewrite passes transform and an interpreter executes through the
unmodified NIC/fabric machinery (DESIGN.md §15).  This sweep shows both
halves of the story:

1. **Crossover** — pass-off (lowered whole-message) vs pass-on (the
   ``pipeline_segments`` rewrite produces the segmentation) across
   schedule x message size x tree shape, both builds: small messages
   stay single-chunk and identical, large messages cross over hard in
   the rewrite's favor (deep chains gain the most).
2. **Autotune** — ``tree_shape="auto"`` / ``segment_size_bytes="auto"``
   configs consulting the persisted tuning table
   (``benchmarks/tuned/smoke.json``) against the static binomial
   default, per (message size, topology) cell through the legacy bench
   path — the table picks different winners for different cells, and the
   notes name each cell's resolved (shape, segmentation).
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import MpiParams, NetParams, PipelineParams
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import (PASS_VARIANTS, SEGMENTED, ConfigSpec,
                                  SweepPoint, crossover_point)
from .common import ExperimentOutput, claim_segmentation

#: Message-size axis in 8-byte elements: 128 stays single-chunk at the
#: armed 2 KiB segment size (``SEGMENTED``); 512/1024 segment into 2/4
#: chunks.
MSG_SIZES = (128, 512, 1024)
TREE_SHAPES = ("binomial", "chain")
#: Autotune cells, topology x elements; must overlap the tuned table's
#: (topology, nranks, size-bucket) coverage for "auto" to bite.
AUTO_TOPOLOGIES = ("crossbar", "torus")
AUTO_ELEMENTS = (128, 1024)
#: tag -> (mpi override, pipeline override): the static binomial default
#: vs. the config that consults the tuned table.
AUTO_MODES = {
    "static": (None, None),
    "auto": (MpiParams(tree_shape="auto"),
             PipelineParams(segment_size_bytes="auto")),
}


def run(*, size: int = 8, msg_sizes: Sequence[int] = MSG_SIZES,
        shapes: Sequence[str] = TREE_SHAPES, iterations: int,
        seed: int = 1, jobs: int = 1, progress=None) -> ExperimentOutput:
    from ..schedule.table import (clear_table_cache, resolve_pipeline_params,
                                  resolve_tree_shape)

    def auto_point(topo: str, elements: int, mode: str) -> SweepPoint:
        mpi, pipeline = AUTO_MODES[mode]
        return SweepPoint(
            experiment=f"fig_schedule-{mode}", kind="latency",
            config=ConfigSpec(
                "paper", size, seed,
                net=NetParams(topology=topo) if topo != "crossbar" else None,
                mpi=mpi, pipeline=pipeline),
            build="ab", elements=elements, iterations=iterations,
            collect_invariants=True)

    crossover = sweep(
        {"shape": shapes, "build": BUILD_TAGS,
         "variant": tuple(PASS_VARIANTS), "elements": msg_sizes},
        partial(crossover_point, "fig_schedule", size=size, seed=seed,
                iterations=iterations),
        jobs=jobs, progress=progress)
    auto = sweep(
        {"topo": AUTO_TOPOLOGIES, "elements": AUTO_ELEMENTS,
         "mode": tuple(AUTO_MODES)}, auto_point,
        jobs=jobs, progress=progress)
    out = ExperimentOutput("fig_schedule",
                           points=crossover.points + auto.points)

    for shape in shapes:
        table = Table(
            f"fig_schedule: scheduled reduce latency (us) vs message "
            f"size, {shape} tree, n={size}", "elements", msg_sizes)
        crossover.fill(table, "avg_latency_us", along="elements",
                       label="{build}-{variant}", shape=shape)
        for build in BUILD_TAGS:
            table.factor_series(f"{build} pass speedup",
                                f"{build}-whole", f"{build}-pass")
        out.tables.append(table)
        whole, passed = ({build: table._find(f"{build}-{variant}").values
                          for build in BUILD_TAGS}
                         for variant in ("whole", "pass"))
        claim_segmentation(out, f"{shape}, pipeline_segments pass: ",
                           SEGMENTED.segment_size_bytes, msg_sizes, whole,
                           passed)

    auto_table = Table(
        f"fig_schedule: auto vs static-binomial AB latency (us), n={size}",
        "elements", AUTO_ELEMENTS)
    for topo in AUTO_TOPOLOGIES:
        auto.fill(auto_table, "avg_latency_us", along="elements",
                  label="{topo}-{mode}", topo=topo)
        auto_table.factor_series(f"{topo} auto speedup",
                                 f"{topo}-static", f"{topo}-auto")
    out.tables.append(auto_table)

    resolved = []
    clear_table_cache()
    for topo in AUTO_TOPOLOGIES:
        for elems in AUTO_ELEMENTS:
            cfg = auto[topo, elems, "auto"].point.config.build()
            tshape = resolve_tree_shape(cfg, elems * 8)
            pparams = resolve_pipeline_params(cfg, elems * 8)
            seg = (f"seg={pparams.segment_size_bytes}"
                   f"w{pparams.max_inflight_segments}"
                   if pparams.armed else "whole")
            resolved.append((topo, elems, tshape.name, seg))
    winners = {(name, seg) for _t, _e, name, seg in resolved}
    out.claim(
        f"tuned table resolves {len(winners)} distinct winner(s) "
        f"across {len(resolved)} (topology, msgsize) cells: "
        + "; ".join(f"{t}/{e * 8}B -> {name} {seg}"
                    for t, e, name, seg in resolved), len(winners) > 1)
    violations = crossover.violations() + auto.violations()
    out.claim(f"invariant violations across the sweep: {violations}",
              violations == 0)
    return out
