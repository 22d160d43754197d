"""Self-tests of the benchmark harness (``python -m pytest perf/tests -q``).

They run the ``--quick`` 1/20-size workloads, so the whole file takes
seconds; none of them asserts a speed.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf import probes, schema, trace  # noqa: E402
from perf.harness import measure  # noqa: E402
from perf.workloads import WORKLOADS, resolve  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def quick(name, **kwargs):
    return measure(WORKLOADS[name], 3, seconds=0.0, repeats=2, quick=True,
                   **kwargs)


def test_benchmark_json_is_the_schema_written_out():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == schema.contract(WORKLOADS)


def test_contract_limits():
    contract = schema.contract(WORKLOADS)
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    for row in contract["end_to_end"]:
        assert 0 < row["bound"] <= 0.25
    for row in contract["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(r["bound"] for r in contract["end_to_end"])} \
        in contract["end_to_end"]


def test_every_repro_module_maps_to_a_declared_layer():
    src = os.path.join(ROOT, "src")
    for folder, _dirs, files in os.walk(os.path.join(src, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            module = trace.module_of_file(os.path.join(folder, name))
            assert module is not None
            assert trace.layer_of_module(module) in trace.LAYERS, module
    assert trace.layer_of_module("heapq") == "builtins"
    assert set(trace.LAYER_PREFIXES.values()) <= set(trace.LAYERS)
    assert trace.unresolved_prefixes() == []


def test_every_probe_row_has_a_function():
    assert set(probes.FUNCTIONS) == {name for name, _u, _h in schema.PROBES}
    assert {home for _n, _u, home in schema.PROBES} <= set(WORKLOADS)


@pytest.mark.parametrize("name", ["contended_lossy", "smoke_sweep"])
def test_same_seed_gives_identical_exact_counts(name):
    first, second = quick(name), quick(name)
    assert first["failed"] == second["failed"] == 0, first["failures"]
    assert first["counts"] == second["counts"]
    assert first["counts"]["sim.events"] > 0
    assert first["work"] == second["work"] > 0


def test_injected_sleep_moves_wall_s_past_its_bound():
    execute_point = resolve("repro.orchestrate.points:execute_point")

    def slow(point):
        time.sleep(0.05)
        return execute_point(point)

    bound = dict((n, b) for n, _u, _d, b in schema.END_TO_END)["wall_s"]
    base = quick("small_reduce_32")["end_to_end"]["wall_s"]["value"]
    slowed = quick("small_reduce_32", execute=slow)
    assert slowed["failed"] == 0
    assert slowed["end_to_end"]["wall_s"]["value"] > base * (1 + bound)


def test_injected_metric_drift_moves_fail_share():
    execute_point = resolve("repro.orchestrate.points:execute_point")
    calls = []

    def drifting(point):
        result = execute_point(point)
        calls.append(point)
        if len(calls) > 4:      # every pass after the warm-up pass
            result.metrics = {k: v + 1e-9 for k, v in result.metrics.items()}
        return result

    clean = quick("small_reduce_32")
    assert clean["fail_share"] == 0
    drifted = quick("small_reduce_32", execute=drifting)
    assert drifted["fail_share"] > 0
    assert drifted["failures"]["nondeterministic"]


def run_cli(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perf", "run.py"), "--quick",
         "--seconds", "0", "--repeats", "2", "--seed", "3", *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_prints_the_contract_line_and_writes_bench_json():
    line = run_cli("--workload", "schedule_compile", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {n: u for n, u, _d, _b in schema.END_TO_END}
    assert {n: row["unit"] for n, row in line["metrics"].items()} == declared
    assert all(row["value"] > 0 for row in line["metrics"].values())
    with open(os.path.join(ROOT, "perf", "results", "bench.json")) as fh:
        stored = json.load(fh)["workloads"]["schedule_compile"]
    assert set(stored["end_to_end"]) == set(declared)
    for name, row in line["metrics"].items():
        assert stored["end_to_end"][name]["value"] == row["value"]


def test_cli_traced_run_prints_every_per_layer_metric():
    line = run_cli("--workload", "schedule_compile", "--trace", "1")
    declared = {n: u for n, u, _d in schema.per_layer()}
    assert {n: row["unit"] for n, row in line["metrics"].items()} == declared
    metrics = {n: row["value"] for n, row in line["metrics"].items()}
    assert metrics["sim.events.calls_in"] == 0      # no simulation here
    assert metrics["schedule.calls_in"] > 0
    assert metrics["schedule.steps"] > 0
    assert metrics["trace.unattributed_share"] < 0.02
    assert metrics["trace.unresolved"] == 0
    with open(os.path.join(ROOT, "perf", "results",
                           "trace_schedule_compile.json")) as fh:
        spans = json.load(fh)["spans"]
    ids = {row["id"] for row in spans}
    assert all(row["parent"] in ids for row in spans if row["parent"])
    assert all(row["end"] >= row["start"] for row in spans)
