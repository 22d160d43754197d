"""The bit-identity gate: diff the simulated numbers of two BENCH_*.json.

Usage::

    python -m repro.orchestrate.compare OLD.json NEW.json

Exit codes: 0 — every shared point agrees; 1 — a metric or counter
differs, or a point of OLD is missing from NEW; 2 — usage error
(unreadable file, bad schema).

``metrics`` and ``counters`` are bit-deterministic outputs of the
simulator, so they compare with ``!=`` — one ulp, one event or one
pattern tag is drift, and every mismatch is listed.  That makes ``compare
serial.json pooled.json`` the worker-count-independence check, ``compare
baseline.json new.json`` the regression gate, and ``refresh-baseline`` the
remedy for a deliberate change.  ``wall_time_s`` / ``events_per_sec`` are
host measurements and are not read here: host time has its own
instrument and gate, ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .benchjson import key_label, load_bench_json, point_index

EXIT_CLEAN = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.orchestrate.compare",
        description="diff the metrics and counters of two BENCH_*.json "
                    "files exactly; nonzero exit on any difference")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    return parser


def _same(a, b) -> bool:
    """``==``, except that NaN — the one value ``!=`` itself — agrees
    with NaN (and with nothing else)."""
    return a == b or (a != a and b != b)


def _drifts(old: dict, new: dict, family: str, label: str) -> list[dict]:
    """Every ``family`` value (``metrics`` / ``counters``) of one shared
    point that differs, or exists on one side only (reported as None)."""
    ov, nv = old.get(family, {}), new.get(family, {})
    return [{"key": old["key"], label: name,
             "old": ov.get(name), "new": nv.get(name)}
            for name in sorted(set(ov) | set(nv))
            if not _same(ov.get(name), nv.get(name))]


def compare_payloads(old: dict, new: dict) -> dict:
    """Pure comparison; returns a verdict dict the CLI renders."""
    old_idx = point_index(old)
    new_idx = point_index(new)
    shared = [k for k in old_idx if k in new_idx]
    missing = [old_idx[k]["key"] for k in sorted(old_idx) if k not in new_idx]
    added = [new_idx[k]["key"] for k in sorted(new_idx) if k not in old_idx]
    metric_drifts: list[dict] = []
    counter_drifts: list[dict] = []
    for key in shared:
        o, n = old_idx[key], new_idx[key]
        metric_drifts += _drifts(o, n, "metrics", "metric")
        counter_drifts += _drifts(o, n, "counters", "counter")
    return {
        "shared_points": len(shared),
        "missing_points": missing,
        "added_points": added,
        "metric_drifts": metric_drifts,
        "counter_drifts": counter_drifts,
        "ok": not (metric_drifts or counter_drifts or missing),
    }


def _drift_table(drifts: Sequence[dict], label: str) -> list[str]:
    header = ["point", label, "old", "new"]
    rows = [[key_label(d["key"]), d[label], repr(d["old"]), repr(d["new"])]
            for d in drifts]
    widths = [max(len(row[c]) for row in [header] + rows)
              for c in range(len(header))]
    rule = ["-" * w for w in widths]
    return ["    " + "  ".join(v.ljust(w) for v, w in zip(row, widths))
            for row in [header, rule] + rows]


def render_verdict(verdict: dict, old_name: str, new_name: str) -> str:
    """Render the verdict, naming every mismatch."""
    lines = [f"bench compare: {old_name} -> {new_name}",
             f"  shared points: {verdict['shared_points']}"]
    if verdict["added_points"]:
        lines.append(f"  new points (ignored): "
                     f"{len(verdict['added_points'])}")
    missing = verdict["missing_points"]
    if missing:
        lines.append(f"  MISSING from new: {len(missing)} point(s)")
        lines += [f"    - {key_label(key)}" for key in missing]
    for title, label in (("METRIC", "metric"), ("COUNTER", "counter")):
        drifts = verdict[f"{label}_drifts"]
        if drifts:
            lines.append(f"  {title} DRIFT in {len(drifts)} value(s):")
            lines += _drift_table(drifts, label)
    lines.append("  verdict: " + ("OK" if verdict["ok"] else "FAIL"))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
            # Both name the file themselves; here it is said once.
            why = (exc.strerror if isinstance(exc, OSError)
                   else str(exc).removeprefix(f"{path}: "))
            errors.append(f"error: {role} ({path}): {why}")
    if errors:
        for line in errors:
            print(line, file=sys.stderr)
        return EXIT_USAGE

    verdict = compare_payloads(payloads["old"], payloads["new"])
    print(render_verdict(verdict, args.old, args.new))
    return EXIT_CLEAN if verdict["ok"] else EXIT_REGRESSION


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
