"""Perf-regression gate: diff two BENCH_*.json files.

Usage::

    python -m repro.orchestrate.compare OLD.json NEW.json --tolerance 10

Exit codes: 0 — clean; 1 — metric or counter drift, wall-time regression
past the tolerance, or points missing from NEW; 2 — usage error
(unreadable files, bad schema, bad flags).

Two different gates, because the two number families have different
physics:

* **metrics** and **counters** are bit-deterministic outputs of the
  simulator — *any* relative metric difference beyond
  ``--metric-tolerance`` (default 0, i.e. exact) is drift, and counters
  (event counts, packet counts, pattern tags) always compare exact; both
  fail the gate.  That makes ``compare serial.json pooled.json`` the
  worker-count-independence check, and ``refresh-baseline`` the remedy
  for a deliberate change;
* **wall times** are host measurements — only a total-sweep slowdown of
  more than ``--tolerance`` percent (default 10) fails, and per-point
  slowdowns are reported but advisory.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .benchjson import key_label, load_bench_json, point_index

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate.compare",
        description="diff two BENCH_*.json files; nonzero exit on metric "
                    "drift or wall-time regression")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        metavar="PCT",
                        help="allowed total wall-time regression in "
                             "percent (default 10)")
    parser.add_argument("--metric-tolerance", type=float, default=0.0,
                        metavar="REL",
                        help="allowed relative metric difference "
                             "(default 0 — metrics are deterministic)")
    parser.add_argument("--max-rows", type=int, default=0, metavar="N",
                        help="cap drift/missing rows in the report "
                             "(0 = unlimited, the default: every "
                             "mismatched metric is listed in one run)")
    return parser


def _rel_diff(old: float, new: float) -> float:
    if old == new:
        return 0.0
    denom = max(abs(old), abs(new))
    return abs(new - old) / denom if denom else 0.0


def _render_rows(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(header[c]), *(len(r[c]) for r in rows))
              for c in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def compare_payloads(old: dict, new: dict, *, tolerance_pct: float = 10.0,
                     metric_tolerance: float = 0.0) -> dict:
    """Pure comparison; returns a verdict dict the CLI renders."""
    old_idx = point_index(old)
    new_idx = point_index(new)
    shared = [k for k in old_idx if k in new_idx]
    missing = [old_idx[k]["key"] for k in sorted(old_idx) if k not in new_idx]
    added = [new_idx[k]["key"] for k in sorted(new_idx) if k not in old_idx]

    drifts = []
    counter_drifts = []
    walls = []
    for key in shared:
        o, n = old_idx[key], new_idx[key]
        for metric in sorted(set(o["metrics"]) | set(n["metrics"])):
            if metric not in o["metrics"] or metric not in n["metrics"]:
                drifts.append({"key": o["key"], "metric": metric,
                               "old": o["metrics"].get(metric),
                               "new": n["metrics"].get(metric),
                               "rel": float("inf")})
                continue
            ov, nv = o["metrics"][metric], n["metrics"][metric]
            rel = _rel_diff(float(ov), float(nv))
            if rel > metric_tolerance:
                drifts.append({"key": o["key"], "metric": metric,
                               "old": ov, "new": nv, "rel": rel})
        oc, nc = o.get("counters", {}), n.get("counters", {})
        counter_drifts += [
            {"key": o["key"], "counter": name,
             "old": oc.get(name), "new": nc.get(name)}
            for name in sorted(set(oc) | set(nc))
            if oc.get(name) != nc.get(name)]
        walls.append({"key": o["key"], "old": o["wall_time_s"],
                      "new": n["wall_time_s"]})

    old_wall = sum(w["old"] for w in walls)
    new_wall = sum(w["new"] for w in walls)
    wall_pct = ((new_wall - old_wall) / old_wall * 100.0) if old_wall else 0.0
    wall_regressed = wall_pct > tolerance_pct

    return {
        "shared_points": len(shared),
        "missing_points": missing,
        "added_points": added,
        "metric_drifts": drifts,
        "counter_drifts": counter_drifts,
        "wall": {"old_s": old_wall, "new_s": new_wall,
                 "pct": wall_pct, "tolerance_pct": tolerance_pct,
                 "regressed": wall_regressed,
                 "per_point": walls},
        "ok": not (drifts or counter_drifts or wall_regressed or missing),
    }


def render_verdict(verdict: dict, old_name: str, new_name: str, *,
                   max_rows: int = 0) -> str:
    """Render the verdict; ``max_rows`` caps the drift/missing listings
    (0 = unlimited — the gate's job is to name *every* mismatch)."""
    cap = max_rows if max_rows > 0 else None
    lines = [f"bench compare: {old_name} -> {new_name}",
             f"  shared points: {verdict['shared_points']}"]
    if verdict["added_points"]:
        lines.append(f"  new points (ignored): "
                     f"{len(verdict['added_points'])}")
    missing = verdict["missing_points"]
    if missing:
        lines.append(f"  MISSING from new: {len(missing)} point(s)")
        for key in missing[:cap]:
            lines.append(f"    - {key_label(key)}")
        if cap is not None and len(missing) > cap:
            lines.append(f"    ... and {len(missing) - cap} more")

    drifts = verdict["metric_drifts"]
    if drifts:
        lines.append(f"  METRIC DRIFT in {len(drifts)} value(s):")
        rows = [[key_label(d["key"]), d["metric"], f"{d['old']}",
                 f"{d['new']}",
                 ("inf" if d["rel"] == float("inf")
                  else f"{d['rel'] * 100.0:.4g}%")]
                for d in drifts[:cap]]
        lines.append("    " + _render_rows(
            ["point", "metric", "old", "new", "rel diff"],
            rows).replace("\n", "\n    "))
        if cap is not None and len(drifts) > cap:
            lines.append(f"    ... and {len(drifts) - cap} more")

    counter_drifts = verdict["counter_drifts"]
    if counter_drifts:
        lines.append(f"  COUNTER DRIFT in {len(counter_drifts)} value(s):")
        rows = [[key_label(d["key"]), d["counter"], f"{d['old']}", f"{d['new']}"]
                for d in counter_drifts[:cap]]
        lines.append("    " + _render_rows(
            ["point", "counter", "old", "new"], rows).replace("\n", "\n    "))
        if cap is not None and len(counter_drifts) > cap:
            lines.append(f"    ... and {len(counter_drifts) - cap} more")

    wall = verdict["wall"]
    slow = sorted((w for w in wall["per_point"] if w["old"] > 0),
                  key=lambda w: w["new"] / w["old"], reverse=True)[:5]
    lines.append(f"  wall time: {wall['old_s']:.3f}s -> "
                 f"{wall['new_s']:.3f}s ({wall['pct']:+.1f}%, "
                 f"tolerance {wall['tolerance_pct']:g}%)"
                 + ("  REGRESSED" if wall["regressed"] else ""))
    if slow and wall["regressed"]:
        rows = [[key_label(w["key"]), f"{w['old']:.3f}s", f"{w['new']:.3f}s",
                 f"{(w['new'] / w['old'] - 1) * 100.0:+.1f}%"]
                for w in slow]
        lines.append("    slowest movers:")
        lines.append("    " + _render_rows(
            ["point", "old", "new", "delta"], rows).replace("\n", "\n    "))
    lines.append("  verdict: " + ("OK" if verdict["ok"] else "FAIL"))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_CLEAN

    # Load both files before bailing so one run reports every problem
    # (a baseline *and* a candidate can be broken at the same time).
    payloads = {}
    errors = []
    for role, path in (("old", args.old), ("new", args.new)):
        try:
            payloads[role] = load_bench_json(path)
        except (OSError, ValueError) as exc:
            errors.append(f"error: {role} ({path}): {exc}")
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        return EXIT_USAGE

    verdict = compare_payloads(payloads["old"], payloads["new"],
                               tolerance_pct=args.tolerance,
                               metric_tolerance=args.metric_tolerance)
    print(render_verdict(verdict, args.old, args.new,
                         max_rows=args.max_rows))
    return EXIT_CLEAN if verdict["ok"] else EXIT_REGRESSION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
