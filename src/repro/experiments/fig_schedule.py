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

from typing import Sequence

import numpy as np

from ..config import MpiParams, NetParams, PipelineParams
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..orchestrate.runner import run_points
from ..bench.report import Table
from .common import ExperimentOutput

#: Message-size axis in 8-byte elements: 128 stays single-chunk at the
#: armed segment size below; 512/1024 segment into 2/4 chunks.
MSG_SIZES = (128, 512, 1024)
TREE_SHAPES = ("binomial", "chain")
BUILDS = ("nab", "ab")
#: Per-build reduce lowerings (the schedule the build would execute).
LOWERINGS = {"nab": "reduce.nab", "ab": "reduce.ab"}
#: (tag, pipeline override or None, passes) — pass-off vs pass-on.
VARIANTS = (
    ("whole", None, ()),
    ("pass",
     PipelineParams(segment_size_bytes=2048, max_inflight_segments=3),
     ("pipeline_segments",)),
)
#: Autotune cells: (topology, elements); must overlap the tuned table's
#: (topology, nranks, size-bucket) coverage for "auto" to bite.
AUTO_CELLS = (("crossbar", 128), ("crossbar", 1024),
              ("torus", 128), ("torus", 1024))


def build_points(*, size: int = 8, msg_sizes: Sequence[int] = MSG_SIZES,
                 shapes: Sequence[str] = TREE_SHAPES,
                 iterations: int = 40, seed: int = 1,
                 collect_invariants: bool = True) -> list[SweepPoint]:
    """The grid, in the deterministic order :func:`run`'s cursor expects:
    the crossover block first, then the autotune block."""
    points = [
        SweepPoint(
            experiment=f"fig_schedule-{tag}", kind="schedule",
            config=ConfigSpec("paper", size, seed,
                              mpi=MpiParams(tree_shape=shape),
                              pipeline=pipeline),
            build=build, elements=elements, iterations=iterations,
            # Single-chunk sizes decline segmentation bit-exactly, so the
            # pass-on variant drops the rewrite there (nothing to pipeline)
            # and the crossover plot shows identical small-message cells.
            options={"lowering": LOWERINGS[build],
                     "passes": (list(passes) if pipeline is None
                                or elements * 8
                                > pipeline.segment_size_bytes else [])},
            collect_invariants=collect_invariants)
        for shape in shapes
        for build in BUILDS
        for tag, pipeline, passes in VARIANTS
        for elements in msg_sizes
    ]
    for topo, elements in AUTO_CELLS:
        net = NetParams(topology=topo) if topo != "crossbar" else None
        for tag, mpi, pipeline in (
                ("static", None, None),
                ("auto", MpiParams(tree_shape="auto"),
                 PipelineParams(segment_size_bytes="auto"))):
            points.append(SweepPoint(
                experiment=f"fig_schedule-{tag}", kind="latency",
                config=ConfigSpec("paper", size, seed, net=net, mpi=mpi,
                                  pipeline=pipeline),
                build="ab", elements=elements, iterations=iterations,
                collect_invariants=collect_invariants))
    return points


def run(*, size: int = 8, msg_sizes: Sequence[int] = MSG_SIZES,
        shapes: Sequence[str] = TREE_SHAPES, iterations: int = 40,
        seed: int = 1, jobs: int = 1, progress=None) -> ExperimentOutput:
    from ..schedule.table import (clear_table_cache, resolve_pipeline_params,
                                  resolve_tree_shape)
    points = build_points(size=size, msg_sizes=msg_sizes, shapes=shapes,
                          iterations=iterations, seed=seed)
    results = run_points(points, jobs=jobs, progress=progress)

    tables = []
    cursor = iter(results)
    headline = []
    for shape in shapes:
        table = Table(
            f"fig_schedule: scheduled reduce latency (us) vs message "
            f"size, {shape} tree, n={size}", "elements", list(msg_sizes))
        series = {}
        for build in BUILDS:
            for tag, _pipeline, _passes in VARIANTS:
                cell = [next(cursor) for _ in msg_sizes]
                series[(build, tag)] = cell
                table.add_series(
                    f"{build}-{tag}",
                    [r.metrics["avg_latency_us"] for r in cell])
        for build in BUILDS:
            table.factor_series(f"{build} pass speedup",
                                f"{build}-whole", f"{build}-pass")
        tables.append(table)
        whole = series[("ab", "whole")][-1].metrics["avg_latency_us"]
        best = series[("ab", "pass")][-1].metrics["avg_latency_us"]
        headline.append(
            f"{shape}: {msg_sizes[-1]} elements, ab whole {whole:.1f}us "
            f"-> pipeline_segments pass {best:.1f}us "
            f"({whole / best:.2f}x)")

    auto_elems = sorted({elems for _topo, elems in AUTO_CELLS})
    auto_topos = tuple(dict.fromkeys(topo for topo, _e in AUTO_CELLS))
    auto_table = Table(
        f"fig_schedule: auto vs static-binomial AB latency (us), n={size}",
        "elements", auto_elems)
    rows: dict = {(topo, tag): [] for topo in auto_topos
                  for tag in ("static", "auto")}
    resolved = []
    clear_table_cache()
    for topo, elems in AUTO_CELLS:
        rows[(topo, "static")].append(next(cursor))
        auto_r = next(cursor)
        rows[(topo, "auto")].append(auto_r)
        cfg = auto_r.point.config.build()
        tshape = resolve_tree_shape(cfg, elems * 8)
        pparams = resolve_pipeline_params(cfg, elems * 8)
        seg = (f"seg={pparams.segment_size_bytes}"
               f"w{pparams.max_inflight_segments}"
               if pparams.armed else "whole")
        resolved.append((topo, elems, tshape.name, seg))
    for topo in auto_topos:
        for tag in ("static", "auto"):
            auto_table.add_series(
                f"{topo}-{tag}",
                [r.metrics["avg_latency_us"] for r in rows[(topo, tag)]])
        auto_table.factor_series(f"{topo} auto speedup",
                                 f"{topo}-static", f"{topo}-auto")
    tables.append(auto_table)

    winners = {(name, seg) for _t, _e, name, seg in resolved}
    headline.append(
        f"tuned table resolves {len(winners)} distinct winner(s) "
        f"across {len(resolved)} (topology, msgsize) cells: "
        + "; ".join(f"{t}/{e * 8}B -> {name} {seg}"
                    for t, e, name, seg in resolved))

    out = ExperimentOutput("fig_schedule", tables, points=results)
    out.notes.extend(headline)
    violations = sum((r.invariant_report or {}).get("violation_count", 0)
                     for r in results)
    out.notes.append(
        f"invariant violations across the sweep: {violations}")
    return out
