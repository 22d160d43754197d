#!/usr/bin/env python3
"""The host-time benchmark: one command, every metric by name.

    python perf/run.py [--workload W] [--seed N] [--seconds S] [--repeats R]
                       [--trace 0|1 | --traced] [--quick] [--pin]

Each workload runs in a fresh worker process of its own, one at a time
(closed loop, one client, no pool).  Before the worker, ``setup_s`` is taken
as the median wall time of fresh ``--setup-only`` interpreters.  The worker
does one warm-up pass and then timed passes for ``--seconds`` (at least
``--repeats``); every timing is the median of the passes.  ``--trace 1`` is a
separate kind of run that adds one pass under the profile hook and prints the
per-layer table instead.

Prints every metric with its unit, writes ``perf/results/bench.json`` and
``perf/results/trace_<workload>.json``, and with ``--workload`` ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero
when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    sys.exit(f"perf/run.py: no simulator to measure: {SRC}/repro is missing")
# ``perf`` is imported as a package from the checkout root; the script's own
# directory leaves the path so perf/trace.py never shadows the stdlib module.
sys.path[0] = ROOT
if SRC not in sys.path:
    sys.path.insert(1, SRC)

from perf import schema  # noqa: E402
from perf.harness import (RESULTS_DIR, calibrated, calibration_s,  # noqa: E402
                          measure, summary)
from perf.workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all seven, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=schema.RUN_SECONDS,
                        help="how long the timed passes of a workload run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed passes at the least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="1/20-size workloads, for the self-tests")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite perf/expected/ for this seed")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pin and args.quick:
        parser.error("--pin records full-size outputs; drop --quick")
    if (args.worker or args.setup_only) and not args.workload:
        parser.error("--worker and --setup-only need --workload")
    return args


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child(args, workload: str, *mode: str):
    """Run this script again for one workload; returns the finished process
    (``subprocess.run`` kills and reaps it on timeout)."""
    command = [sys.executable, os.path.abspath(__file__), *mode,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--repeats", str(args.repeats),
               "--trace", str(args.trace)]
    if args.quick:
        command.append("--quick")
    if args.pin:
        command.append("--pin")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if done.returncode != 0:
        sys.exit(f"perf/run.py: {' '.join(mode)} for {workload} exited "
                 f"with {done.returncode}")
    return done


def setup_seconds(args, workload: str) -> list:
    """Wall time of fresh interpreters from start to set-up done, at the
    reference speed (the calibration loop runs around every spawn)."""
    times, cals = [], [calibration_s()]
    for _ in range(schema.SETUP_SPAWNS):
        t0 = time.perf_counter()
        child(args, workload, "--setup-only")
        times.append(time.perf_counter() - t0)
        cals.append(calibration_s())
    return calibrated(times, cals)


def run_workload(args, workload: str) -> dict:
    setup = None
    if not args.trace and not args.pin:
        setup = summary(setup_seconds(args, workload))
    result = json.loads(child(args, workload, "--worker").stdout
                        .splitlines()[-1])
    if setup is not None:
        result["end_to_end"]["setup_s"] = setup
    return result


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['end_to_end']['wall_s']['n']} timed passes  "
          f"work {result['work']} {result['work_unit']} per pass")
    for name, unit, _better, bound in schema.END_TO_END:
        row = result["end_to_end"].get(name)
        if row is None:
            continue
        spread = (f"  [q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}]"
                  if "q1" in row else "")
        print(f"  {name:<14}{row['value']:>14.6g} {unit:<7}"
              f"bound {bound:.0%}{spread}")
    print(f"  {'fail_share':<14}{result['fail_share']:>14.6g} {'ratio':<7}"
          f"({result['failed']} failed of {result['attempted']})")
    for cause, listed in result["failures"].items():
        for line in listed:
            print(f"    FAILED [{cause}] {line}")
    if "per_layer" in result:
        for name, unit, _better in schema.per_layer():
            print(f"  {name:<46}{result['per_layer'][name]:>16.6g} {unit}")
        for line in result["unresolved"]:
            print(f"    unresolved: {line}")


def contract_line(result: dict, traced: bool) -> str:
    if traced:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _better in schema.per_layer()}
    else:
        metrics = {name: {"value": result["end_to_end"][name]["value"],
                          "unit": unit}
                   for name, unit, _better, _bound in schema.END_TO_END}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def write_results(args, results: list) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for result in results:
        spans = result.pop("spans")
        layers = {key: value for key, value
                  in result.get("per_layer", {}).items()
                  if key.endswith((".self_s", ".calls_in"))}
        with open(os.path.join(
                RESULTS_DIR, f"trace_{result['workload']}.json"), "w") as fh:
            json.dump({"workload": result["workload"], "seed": args.seed,
                       "traced": bool(args.trace), "spans": spans,
                       "layers": layers,
                       "unresolved": result.get("unresolved", [])}, fh)
    with open(os.path.join(RESULTS_DIR, "bench.json"), "w") as fh:
        json.dump({"schema": 1, "seed": args.seed, "seconds": args.seconds,
                   "quick": args.quick, "traced": bool(args.trace),
                   "workloads": {r["workload"]: r for r in results}},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_smoke_grid() -> None:
    from perf import workloads
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    with open(workloads.SMOKE_GRID_FILE, "w") as fh:
        json.dump(workloads.smoke_grid_template(), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.setup_only:
        # what setup_s times from a fresh interpreter: repro imported, points
        # built, tuned table loaded, one cluster per distinct config
        workload = WORKLOADS[args.workload]
        workload.setup(workload.items(args.seed, args.quick))
        return 0
    if args.worker:
        result = measure(WORKLOADS[args.workload], args.seed,
                         seconds=args.seconds, repeats=args.repeats,
                         quick=args.quick, traced=bool(args.trace),
                         pin=args.pin)
        print(json.dumps(result))
        return 0

    if args.pin:
        write_smoke_grid()
        args.seconds, args.repeats = 0.0, 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for name in names:
        results.append(run_workload(args, name))
        report(results[-1])
    if len(results) > 1:
        walls = [r["end_to_end"]["wall_s"]["value"] for r in results]
        print(f"== {len(results)} workloads, median pass "
              f"{statistics.median(walls):.3f} s, "
              f"{sum(r['failed'] for r in results)} failed units")
    last_line = (contract_line(results[0], bool(args.trace))
                 if args.workload and not args.pin else None)
    write_results(args, results)
    if last_line is not None:
        print(last_line)
    return 1 if any(r["failed"] for r in results) else 0


if __name__ == "__main__":
    sys.exit(main())
