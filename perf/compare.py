#!/usr/bin/env python3
"""A/B tool: judge a change against its parent with the benchmark's own rule.

    python perf/compare.py --parent DIR --change DIR [--pairs 10]
                           [--workload W ...] [--seed 100] [--seconds S]
    python perf/compare.py --parent-json P1.json P2.json ...
                           --change-json C1.json C2.json ...

With two checkouts it runs ``--pairs`` parent/change pairs per workload, pair
``k`` at seed ``--seed + k``, alternating which side goes first, then one
traced run per side for the exact-count rows.  With two sets of saved
``bench.json`` files it pairs them in the order given.

Per workload and end-to-end metric it prints each side's median and
quartiles and one verdict:

``gain``        the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the distance
                between the parent's quartiles;
``regressed``   the change's median is worse than the parent's by more than
                the metric's bound;
``unresolved``  either side's quartile distance exceeds the bound, so the
                runs cannot tell — unless every run of the change reads
                better than every run of the parent;
``within``      none of the above: no worse than the bound allows.

Exact-count rows are diffed exactly.  Exits 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[0] = os.path.dirname(HERE)

from perf import schema  # noqa: E402
from perf.harness import RESULTS_DIR, summary  # noqa: E402

WIN_SHARE = 0.9
RUN_TIMEOUT_S = 180


def quartiles(values):
    row = summary(values)
    median = row["value"]
    return row.get("q1", median), median, row.get("q3", median)


def judge(parent, change, better: str, bound: float) -> dict:
    """The verdict for one metric from paired runs (see module doc)."""
    sign = -1.0 if better == "lower" else 1.0   # positive = improvement
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    delta = sign * (c_med - p_med) / p_med if p_med else 0.0
    spread = max((p_q3 - p_q1) / p_med if p_med else 0.0,
                 (c_q3 - c_q1) / c_med if c_med else 0.0)
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (len(pairs) >= 10 and wins >= WIN_SHARE * len(pairs)
            and abs(c_med - p_med) > p_q3 - p_q1):
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif delta < -bound:
        verdict = "regressed"
    else:
        verdict = "within"
    return {"verdict": verdict, "pairs": len(pairs), "wins": wins,
            "losses": losses, "delta": delta, "spread": spread,
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3}}


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(checkout, "perf", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"compare: {checkout} failed on {workload} "
                         f"seed {seed} (exit {done.returncode})")
    line = json.loads(done.stdout.splitlines()[-1])
    return {name: row["value"] for name, row in line["metrics"].items()}


def measure_pairs(args, workload: str):
    """``({metric: [values]}, {metric: [values]}, counts, counts)``."""
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {} for side in sides}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            metrics = run_once(sides[side], workload, args.seed + k,
                               args.seconds, 0)
            for name, value in metrics.items():
                values[side].setdefault(name, []).append(value)
        print(f"  {workload}: pair {k + 1}/{args.pairs} done",
              file=sys.stderr)
    counts = {side: {name: value for name, value in run_once(
                  sides[side], workload, args.seed, args.seconds, 1).items()
                  if name in schema.EXACT_COUNTS}
              for side in sides}
    return values["parent"], values["change"], counts["parent"], \
        counts["change"]


def load_sets(paths) -> dict:
    """``{workload: {metric: [values]}}`` from saved ``bench.json`` files."""
    out: dict = {}
    for path in paths:
        with open(path) as fh:
            payload = json.load(fh)
        for workload, result in payload["workloads"].items():
            for name, row in result["end_to_end"].items():
                out.setdefault(workload, {}).setdefault(name, []).append(
                    row["value"])
    return out


def report(workload: str, parent: dict, change: dict, p_counts: dict,
           c_counts: dict) -> dict:
    print(f"== {workload}")
    verdicts = {}
    for name, unit, better, bound in schema.END_TO_END:
        if name not in parent or name not in change:
            continue
        n = min(len(parent[name]), len(change[name]))
        v = judge(parent[name][:n], change[name][:n], better, bound)
        verdicts[name] = v
        p, c = v["parent"], v["change"]
        print(f"  {name:<12} parent {p['median']:.6g} [{p['q1']:.6g}, "
              f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
              f"{c['q3']:.6g}] {unit}  {v['delta']:+.2%}  wins "
              f"{v['wins']}/{v['pairs']}  spread {v['spread']:.2%} vs "
              f"bound {bound:.0%}  -> {v['verdict']}")
    moved = {name: (p_counts[name], c_counts.get(name))
             for name in p_counts if p_counts[name] != c_counts.get(name)}
    for name, (old, new) in moved.items():
        print(f"  count {name}: {old} -> {new}")
    if p_counts and not moved:
        print(f"  {len(p_counts)} exact-count rows identical")
    return {"metrics": verdicts,
            "counts_moved": {k: list(v) for k, v in moved.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--parent-json", nargs="+", default=[])
    parser.add_argument("--change-json", nargs="+", default=[])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS)
    args = parser.parse_args(argv)
    checkouts = bool(args.parent and args.change)
    if checkouts == bool(args.parent_json and args.change_json):
        parser.error("give --parent and --change, or --parent-json and "
                     "--change-json")
    if checkouts and args.pairs < 10:
        print("compare: fewer than 10 pairs cannot claim a gain",
              file=sys.stderr)

    out = {}
    if checkouts:
        args.parent = os.path.abspath(args.parent)
        args.change = os.path.abspath(args.change)
        from perf.workloads import WORKLOADS
        for workload in args.workload or list(WORKLOADS):
            out[workload] = report(workload, *measure_pairs(args, workload))
    else:
        parent, change = (load_sets(args.parent_json),
                          load_sets(args.change_json))
        for workload in args.workload or sorted(set(parent) & set(change)):
            out[workload] = report(workload, parent[workload],
                                   change[workload], {}, {})

    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "compare.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    regressed = [f"{w}/{m}" for w, r in out.items()
                 for m, v in r["metrics"].items()
                 if v["verdict"] == "regressed"]
    if regressed:
        print("regressed: " + ", ".join(regressed))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
