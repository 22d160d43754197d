"""Determinism race detector (the dynamic layer of the sanitizer).

A *schedule race* is a place where a simulation's result silently depends
on the arbitrary FIFO tiebreak among same-timestamp events.  The
schedule-perturbation harness (:func:`check_points` / ``python -m
repro.analysis.races``) runs a scenario once under the default FIFO
schedule and N more times under seeded tiebreak-shuffle schedules
(:mod:`repro.sim.events`), then diffs metrics, simulator counters and
invariant reports bit-for-bit.  Any divergence is a *confirmed* race: same
inputs, same seeds, different answer — only the same-time event order
changed.  The verdict gates CI (``race-smoke``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from ..config import check_name
from ..sim.events import tiebreak_key

EXIT_CLEAN = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# perturbation harness
# ---------------------------------------------------------------------------

def perturbation_seeds(seed: int, runs: int) -> list[int]:
    """The tiebreak seeds for one harness invocation: a pure, well-spread
    function of (base seed, run index), so reports are reproducible."""
    return [tiebreak_key(seed, i + 1) for i in range(runs)]


def _capture(result: Any) -> dict:
    """The comparable face of one PointResult: everything that must be
    bit-identical across schedules (host wall time excluded)."""
    cap: dict[str, Any] = {"metrics": dict(result.metrics),
                           "counters": dict(result.counters)}
    if result.invariant_report is not None:
        cap["invariants"] = {
            "checks": result.invariant_report["checks"],
            "violation_count": result.invariant_report["violation_count"],
            "violations": result.invariant_report["violations"],
        }
    return cap


def diff_captures(base: Any, other: Any, path: str = "") -> list[dict]:
    """Recursive exact diff of two captures; each divergence names its
    path and both values."""
    if isinstance(base, dict) and isinstance(other, dict):
        out = []
        for key in sorted(set(base) | set(other), key=repr):
            sub = f"{path}.{key}" if path else str(key)
            if key not in base:
                out.append({"path": sub, "baseline": None,
                            "perturbed": other[key]})
            elif key not in other:
                out.append({"path": sub, "baseline": base[key],
                            "perturbed": None})
            else:
                out.extend(diff_captures(base[key], other[key], sub))
        return out
    if isinstance(base, (list, tuple)) and isinstance(other, (list, tuple)):
        out = []
        if len(base) != len(other):
            out.append({"path": f"{path}.len", "baseline": len(base),
                        "perturbed": len(other)})
        for i, (a, b) in enumerate(zip(base, other)):
            out.extend(diff_captures(a, b, f"{path}[{i}]"))
        return out
    equal = (base == other) or (base != base and other != other)  # NaN==NaN
    if equal and type(base) is type(other):
        return []
    return [{"path": path, "baseline": base, "perturbed": other}]


@dataclass
class PointVerdict:
    """Perturbation result for one sweep point."""

    label: str
    key: dict
    clean: bool
    #: Per diverging perturbed run: tiebreak seed + exact diffs.
    divergences: list[dict]

    def to_dict(self) -> dict:
        return {"label": self.label, "key": self.key, "clean": self.clean,
                "divergences": self.divergences}


def check_points(points: list, *, runs: int = 8, seed: int = 1,
                 jobs: int = 1, max_diffs_per_run: int = 20,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> list[PointVerdict]:
    """Run every point under FIFO + ``runs`` shuffled schedules and
    return one verdict per point."""
    from ..orchestrate.runner import run_points
    seeds = perturbation_seeds(seed, runs)
    batch = []
    for point in points:
        batch.append(replace(point, tiebreak_seed=None))
        batch.extend(replace(point, tiebreak_seed=s) for s in seeds)
    results = run_points(batch, jobs=jobs, progress=progress)

    verdicts = []
    stride = 1 + runs
    for i, point in enumerate(points):
        group = results[i * stride:(i + 1) * stride]
        baseline = _capture(group[0])
        divergences = []
        for tb_seed, res in zip(seeds, group[1:]):
            diffs = diff_captures(baseline, _capture(res))
            if diffs:
                divergences.append({
                    "tiebreak_seed": tb_seed,
                    "diffs": diffs[:max_diffs_per_run],
                    "diff_count": len(diffs),
                })
        verdict = PointVerdict(label=point.label(), key=point.key(),
                               clean=not divergences,
                               divergences=divergences)
        verdicts.append(verdict)
        if progress is not None:
            state = "clean" if verdict.clean else (
                f"DIVERGED in {len(divergences)}/{runs} schedules")
            progress(f"[races] {point.label()}: {state}")
    return verdicts


# ---------------------------------------------------------------------------
# scenario registry + CLI
# ---------------------------------------------------------------------------

def scenario_points(name: str, *, seed: int = 1,
                    iterations: Optional[int] = None) -> list:
    """The sweep points behind a named scenario: every grid registered in
    :data:`repro.orchestrate.points.GRIDS` is one."""
    from ..orchestrate.points import GRIDS
    check_name("scenario", name, GRIDS)
    return GRIDS[name].points(seed=seed, iterations=iterations)


def build_report(scenario: str, verdicts: list[PointVerdict], *,
                 runs: int, seed: int) -> dict:
    dirty = [v for v in verdicts if not v.clean]
    return {
        "schema": 1,
        "tool": "repro.analysis.races",
        "scenario": scenario,
        "runs_per_point": runs,
        "seed": seed,
        "points": len(verdicts),
        "diverged_points": len(dirty),
        "clean": not dirty,
        "verdicts": [v.to_dict() for v in verdicts],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.races",
        description="Schedule-perturbation determinism sanitizer: re-run a "
                    "scenario under shuffled same-time event orders and "
                    "fail on any bit-level divergence.")
    parser.add_argument("--scenario", action="append", default=None,
                        help="registered grid to check (repeatable); "
                             "default: every grid, the minutes-long scale "
                             "grid included")
    parser.add_argument("--runs", type=int, default=8,
                        help="perturbed schedules per point (default 8)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed for the schedule permutations")
    parser.add_argument("--iterations", type=int, default=None,
                        help="override per-point benchmark iterations")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default serial)")
    parser.add_argument("--out", default=None,
                        help="write the JSON race report to this file")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-point progress lines")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    from ..orchestrate.points import GRIDS
    scenarios = args.scenario or list(GRIDS)
    progress = None if args.quiet else (
        lambda msg: print(msg, file=sys.stderr))
    reports = []
    any_dirty = False
    for name in scenarios:
        try:
            points = scenario_points(name, seed=args.seed,
                                     iterations=args.iterations)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        verdicts = check_points(points, runs=args.runs, seed=args.seed,
                                jobs=args.jobs, progress=progress)
        report = build_report(name, verdicts, runs=args.runs,
                              seed=args.seed)
        reports.append(report)
        any_dirty = any_dirty or not report["clean"]

    out_doc = reports[0] if len(reports) == 1 else {
        "schema": 1, "tool": "repro.analysis.races",
        "clean": not any_dirty, "scenarios": reports}
    text = json.dumps(out_doc, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    for report in reports:
        for verdict in report["verdicts"]:
            if verdict["clean"]:
                continue
            print(f"SCHEDULE RACE: {verdict['label']} diverged in "
                  f"{len(verdict['divergences'])}/{report['runs_per_point']} "
                  f"perturbed schedules", file=sys.stderr)
    return EXIT_DIVERGED if any_dirty else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
