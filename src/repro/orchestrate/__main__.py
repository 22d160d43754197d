"""CLI front end: ``python -m repro.orchestrate <command>``.

``run-point '<json>'``
    Replay one sweep point serially in this process and print its metrics
    (the :meth:`SweepPoint.to_dict` JSON that worker-failure errors embed).

``smoke [grid] [flags]``
    Run one registered CI grid (default: the first, ``fig7``) and write
    ``BENCH_<bench>.json`` to ``--out``, plus
    ``<grid>-invariant-report.json`` when its points run under the
    protocol-invariant monitor (any violation exits 1).  ``--iterations``
    defaults to the grid's own; ``--sizes`` replaces the grid's ``size``
    axis, if it has one; ``--cache DIR`` serves points through the
    content-addressed result cache and writes ``<bench>-cache-stats.json``.
    A point no grid can make (``--iterations 0``, ``--sizes 0``) is one
    ``error:`` line.

``refresh-baseline [grid ...] [--dir DIR]``
    Re-run the named grids — default: every grid with a committed
    ``BENCH_<bench>.baseline.json`` in ``--dir`` (``benchmarks/baselines``)
    — exactly as ``smoke`` would and overwrite those files.  Run it when
    a deliberate change moves smoke metrics or counters, commit the
    result, and say why in the commit message.

``summarize BENCH.json ...``
    Render BENCH_*.json files as a GitHub-flavored markdown table — what
    the CI jobs append to ``$GITHUB_STEP_SUMMARY``.

(The compare gate lives at ``python -m repro.orchestrate.compare``, the
determinism gate at ``python -m repro.analysis.races``.)

Registered grids (``repro.orchestrate.points.GRIDS``):
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..config import loads
from ..errors import ConfigError
from ..schedule.ir import ScheduleError
from .benchjson import events_per_sec, load_bench_json, write_bench_json
from .points import GRIDS, SweepPoint, execute_point
from .runner import run_points


def grid_table() -> str:
    """One line per registered grid: name, default point count, files."""
    return "\n".join(
        f"  {g.name:<9} {len(g.points()):>2} points -> BENCH_{g.bench}.json"
        for g in GRIDS.values())


def _grid(name: str):
    if name not in GRIDS:
        raise argparse.ArgumentTypeError(
            f"unknown grid {name!r}; known: {', '.join(GRIDS)}")
    return GRIDS[name]


def _progress(line: str) -> None:
    print(f"  {line}", flush=True)


def _cmd_run_point(args: argparse.Namespace) -> int:
    try:
        res = execute_point(SweepPoint.from_dict(loads(args.spec, "point")))
    except (ConfigError, ScheduleError, ValueError) as exc:
        # The door's refusal, or the executor's own of a spec it cannot run.
        print(f"error: bad point spec: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "key": res.point.key(),
        "metrics": res.metrics,
        "wall_time_s": res.wall_time_s,
        "counters": res.counters,
        "invariant_report": res.invariant_report,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    grid = args.grid
    axes = {} if args.sizes is None else {"size": tuple(args.sizes)}
    try:
        points = grid.points(seed=args.seed, iterations=args.iterations,
                             **axes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = None
    if args.cache:
        from ..tenancy.cache import ResultCache
        cache = ResultCache(args.cache)
    results = run_points(points, jobs=args.jobs, cache=cache,
                         progress=_progress)
    bench_path = write_bench_json(grid.bench, results, directory=out_dir,
                                  jobs=args.jobs)
    for r in results:
        eps = events_per_sec(r.counters, r.wall_time_s)
        rate = f", {eps:,.0f} events/s" if eps else ""
        print(f"  {r.point.label()}: {r.counters.get('events', 0):,} events "
              f"in {r.wall_time_s:.2f}s{rate}")
    print(f"wrote {bench_path}")
    if cache is not None:
        stats = cache.stats()
        stats_path = (out_dir /
                      f"{grid.bench.replace('_', '-')}-cache-stats.json")
        stats_path.write_text(json.dumps(stats, indent=2, sort_keys=True)
                              + "\n")
        print(f"cache: {stats['hits']} hit(s), {stats['misses']} miss(es) "
              f"({stats['entries']} stored) -> {stats_path}")
    if all(r.invariant_report is None for r in results):
        return 0
    report = {
        "schema": 1,
        "points": [{"key": r.point.key(), "report": r.invariant_report}
                   for r in results],
        "violation_count": sum(r.invariant_report["violation_count"]
                               for r in results if r.invariant_report),
    }
    report_path = out_dir / f"{grid.name}-invariant-report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {report_path}")
    if report["violation_count"]:
        print(f"protocol invariant violations: "
              f"{report['violation_count']}", file=sys.stderr)
        return 1
    return 0


def _cmd_refresh_baseline(args: argparse.Namespace) -> int:
    grids = args.grids or [
        g for g in GRIDS.values() if Path(g.baseline_path(args.dir)).exists()]
    if not grids:
        print(f"error: no grid has a baseline in {args.dir}; name the "
              f"grids to create", file=sys.stderr)
        return 2
    try:
        batches = [(g, g.points(seed=args.seed, iterations=args.iterations))
                   for g in grids]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for grid, points in batches:
        results = run_points(points, jobs=args.jobs, progress=_progress)
        written = write_bench_json(grid.bench, results, jobs=args.jobs,
                                   path=grid.baseline_path(args.dir))
        print(f"wrote {written} — commit it to refresh the CI perf-gate "
              f"baseline")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    lines = ["| sweep | point | sim events | wall (s) | events/sec |",
             "| --- | --- | ---: | ---: | ---: |"]
    for bench in args.bench:
        try:
            payload = load_bench_json(bench)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        name = payload.get("name", "?")
        for record in payload["points"]:
            key = record["key"]
            label = (f"{key.get('experiment')}/{key.get('kind')} "
                     f"n={key.get('size')} {key.get('build')} "
                     f"({key.get('variant')})")
            events = record.get("counters", {}).get("events", 0)
            eps = record.get("events_per_sec")
            lines.append(
                f"| {name} | {label} | {events:,} | "
                f"{record['wall_time_s']:.2f} | "
                + (f"{eps:,.0f} |" if eps else "n/a |"))
        total_eps = payload.get("events_per_sec")
        lines.append(
            f"| {name} | **total** | | "
            f"{payload.get('total_wall_s', 0.0):.2f} | "
            + (f"**{total_eps:,.0f}** |" if total_eps else "n/a |"))
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    raw, table = argparse.RawDescriptionHelpFormatter, grid_table()
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate", formatter_class=raw,
        description=__doc__ + table)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--jobs", type=int, default=2)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--iterations", type=int, default=None,
                       help="per-point iterations (default: the grid's own)")

    p_run = sub.add_parser("run-point", help="replay one point serially")
    p_run.add_argument("spec", help="SweepPoint.to_dict() JSON")
    p_run.set_defaults(run=_cmd_run_point)

    p_smoke = sub.add_parser(
        "smoke", parents=[sweep], formatter_class=raw,
        help="run one registered CI grid",
        description="registered grids:\n" + table)
    p_smoke.set_defaults(run=_cmd_smoke)
    p_smoke.add_argument("grid", nargs="?", type=_grid,
                         default=next(iter(GRIDS)))
    p_smoke.add_argument("--out", default="ci-artifacts")
    p_smoke.add_argument("--sizes", type=int, nargs="+", default=None,
                         help="node counts, for grids with a size axis")
    p_smoke.add_argument("--cache", default=None, metavar="DIR",
                         help="serve points through this result cache")

    p_base = sub.add_parser("refresh-baseline", parents=[sweep],
                            help="re-run grids, overwrite their baselines")
    p_base.set_defaults(run=_cmd_refresh_baseline)
    p_base.add_argument("grids", nargs="*", type=_grid,
                        help="default: every grid with a baseline in --dir")
    p_base.add_argument("--dir", default="benchmarks/baselines")

    p_sum = sub.add_parser("summarize",
                           help="render BENCH_*.json as a markdown table")
    p_sum.set_defaults(run=_cmd_summarize)
    p_sum.add_argument("bench", nargs="+", help="BENCH_*.json file(s)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
