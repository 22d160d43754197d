"""The schedule autotuner: ``python -m repro.schedule.tune``.

Sweeps the schedule-IR candidate space — tree shape x segment size x
pipeline window, executed through the schedule interpreter on the AB
build — for every (message size, topology) cell at a fixed rank count,
and persists the per-cell winners as a versioned
:class:`~repro.schedule.table.TuningTable` (default
``benchmarks/tuned/smoke.json``, the file ``tree_shape="auto"`` /
``segment_size_bytes="auto"`` configs consult at runtime).

Candidates run as ordinary orchestrator sweep points (kind
``"schedule"``), so they parallelize with ``--jobs`` and can be served
from the content-addressed result cache (``--cache DIR``) on re-runs.
Selection is deterministic: candidates are generated in a fixed order and
the argmin over ``avg_latency_us`` uses strict less-than, so ties keep
the earliest (most conventional) candidate.  Message-size buckets cover
the whole non-negative range — edges at the byte midpoint between
adjacent swept sizes — so any runtime payload resolves to the winner of
the nearest swept size.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..config import MpiParams, NetParams, PipelineParams
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..orchestrate.runner import run_points
from .table import TABLE_SCHEMA, TunedEntry, TuningTable, default_table_path

#: The tuned cells: every topology crossed with every message size below.
TOPOLOGIES = ("crossbar", "torus")
#: Message-size axis in 8-byte elements (1 KiB and 8 KiB payloads).
ELEMENTS = (128, 1024)
#: Tree-shape candidates as (name, radix).
SHAPES = (("binomial", 2), ("knomial", 4), ("chain", 2), ("bine", 2))
#: Segmentation candidates as (segment_size_bytes, max_inflight_segments);
#: (0, 0) is the whole-message baseline (no pipeline override at all, so
#: the point key matches an untuned checkout).
SEGMENTS = ((0, 0), (1024, 2), (1024, 4), (2048, 2), (2048, 4))

ITEMSIZE = 8  # float64
#: Open-ended top bucket edge (vastly larger than any simulated payload).
MAX_MSG_BYTES = 1 << 62


def candidates() -> list[tuple]:
    """The per-cell candidate list, in deterministic tie-break order."""
    return [(shape, radix, seg, window)
            for shape, radix in SHAPES
            for seg, window in SEGMENTS]


def cell_points(topology: str, elements: int, *, nranks: int, seed: int,
                iterations: int) -> list[SweepPoint]:
    """Sweep points for one (topology, message-size) cell, candidate-major
    in :func:`candidates` order."""
    points = []
    for shape, radix, seg, window in candidates():
        pipeline = (PipelineParams(segment_size_bytes=seg,
                                   max_inflight_segments=window)
                    if seg else None)
        tag = (f"tune-{topology}-e{elements}-{shape}{radix}"
               + (f"-s{seg}w{window}" if seg else "-whole"))
        points.append(SweepPoint(
            experiment=tag, kind="schedule",
            config=ConfigSpec(
                "paper", nranks, seed,
                net=(NetParams(topology=topology)
                     if topology != "crossbar" else None),
                mpi=MpiParams(tree_shape=shape, tree_radix=radix),
                pipeline=pipeline),
            build="ab", elements=elements, iterations=iterations,
            options={"lowering": "reduce.ab", "passes": []}))
    return points


def _bucket_edges(elements: Sequence[int]) -> list[tuple[int, int]]:
    """[min_msg_bytes, max_msg_bytes] per swept size, covering [0, inf)."""
    sizes = sorted(e * ITEMSIZE for e in elements)
    edges = []
    lo = 0
    for i, nbytes in enumerate(sizes):
        hi = (MAX_MSG_BYTES if i == len(sizes) - 1
              else (nbytes + sizes[i + 1]) // 2 - 1)
        edges.append((lo, hi))
        lo = hi + 1
    return edges


def tune(*, nranks: int = 8, seed: int = 1, iterations: int = 5,
         jobs: int = 1, cache=None, progress=None) -> TuningTable:
    """Run the full sweep and return the winners as a TuningTable."""
    cells = [(topo, elements)
             for topo in TOPOLOGIES for elements in ELEMENTS]
    points: list[SweepPoint] = []
    for topo, elements in cells:
        points.extend(cell_points(topo, elements, nranks=nranks,
                                  seed=seed, iterations=iterations))
    results = run_points(points, jobs=jobs, cache=cache, progress=progress)

    per_cell = len(candidates())
    edges = dict(zip(sorted(e * ITEMSIZE for e in ELEMENTS),
                     _bucket_edges(ELEMENTS)))
    entries = []
    for i, (topo, elements) in enumerate(cells):
        cell = results[i * per_cell:(i + 1) * per_cell]
        best_idx, best_lat = 0, float("inf")
        for j, r in enumerate(cell):
            lat = r.metrics["avg_latency_us"]
            if lat < best_lat:
                best_idx, best_lat = j, lat
        shape, radix, seg, window = candidates()[best_idx]
        lo, hi = edges[elements * ITEMSIZE]
        entries.append(TunedEntry(
            topology=topo, nranks=nranks,
            min_msg_bytes=lo, max_msg_bytes=hi,
            tree_shape=shape, tree_radix=radix,
            segment_size_bytes=seg,
            max_inflight_segments=(window or 4),
            source={
                "avg_latency_us": f"{best_lat:.6f}",
                "elements": str(elements),
                "experiment": cell[best_idx].point.experiment,
                "iterations": str(iterations),
                "seed": str(seed),
            }))
    # File order is the lookup order: cells are disjoint, so ordering by
    # (topology, bucket) is purely cosmetic.
    entries.sort(key=lambda e: (TOPOLOGIES.index(e.topology),
                                e.min_msg_bytes))
    return TuningTable(entries=entries)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.schedule.tune",
        description="autotune tree shape + segmentation per (message "
                    "size, topology) cell and persist the winners")
    parser.add_argument("--out", default=None,
                        help="table path (default: the table 'auto' "
                             "configs read, benchmarks/tuned/smoke.json)")
    parser.add_argument("--nranks", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--cache", default=None,
                        help="content-addressed result-cache directory "
                             "(re-runs are served from it)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    cache = None
    if args.cache:
        from ..tenancy.cache import ResultCache
        cache = ResultCache(args.cache)
    table = tune(nranks=args.nranks, seed=args.seed,
                 iterations=args.iterations, jobs=args.jobs, cache=cache,
                 progress=lambda line: print(f"  {line}", flush=True))
    out = Path(args.out) if args.out else default_table_path()
    table.dump(out)
    print(f"wrote {out} (schema {TABLE_SCHEMA}, "
          f"{len(table.entries)} entries)")
    for e in table.entries:
        seg = (f"seg={e.segment_size_bytes}w{e.max_inflight_segments}"
               if e.segment_size_bytes else "whole")
        print(f"  {e.topology:9s} [{e.min_msg_bytes}, "
              f"{min(e.max_msg_bytes, 10**9)}] -> "
              f"{e.tree_shape}(r{e.tree_radix}) {seg}")
    winners = {(e.tree_shape, e.tree_radix, e.segment_size_bytes,
                e.max_inflight_segments) for e in table.entries}
    print(f"{len(winners)} distinct winner(s) across "
          f"{len(table.entries)} cells")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
