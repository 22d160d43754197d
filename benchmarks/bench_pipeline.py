"""segmented-pipeline benchmark: repro.pipeline under the orchestrator's
determinism contract.

Runs the pipeline smoke grid (whole-message baseline vs fixed and greedy
schedules on a large message, plus the crash+heal-mid-pipeline scenario)
twice — serially and through the process pool — and asserts bit-identical
metrics and counters, the pipelined-beats-whole-message latency headline,
a violation-free invariant report (INV-SEGMENT included), and a clean
self-compare of the emitted BENCH_pipeline_smoke.json.
"""

import pytest

from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.compare import compare_payloads
from repro.orchestrate.points import GRIDS
from repro.orchestrate.runner import run_points

from conftest import JOBS, SEED, iters, run_once, save_bench_json

pytestmark = pytest.mark.smoke


def test_pipeline_parallel_merge_matches_serial(benchmark):
    jobs = max(2, JOBS)
    points = GRIDS["pipeline"].points(seed=SEED, iterations=iters(6, 7))
    serial = run_points(points, jobs=1)

    def run():
        return run_points(points, jobs=jobs)

    parallel = run_once(benchmark, run)
    # bit-identical across --jobs, segment windows and healing included
    assert [r.point.key() for r in parallel] == \
        [r.point.key() for r in serial]
    assert [r.metrics for r in parallel] == [r.metrics for r in serial]
    assert [r.counters for r in parallel] == [r.counters for r in serial]
    # the whole grid ran under the invariant monitor (INV-SEGMENT included)
    assert all((r.invariant_report or {}).get("violation_count", 0) == 0
               for r in parallel)

    # The latency headline: on the large message, the pipelined AB build
    # beats whole-message AB (cut-through folding overlaps the tree).
    latency = [r for r in parallel if r.point.kind == "latency"]
    by_key = {(r.point.config.pipeline is not None,
               (r.point.config.pipeline.schedule
                if r.point.config.pipeline else "-"),
               r.point.build): r.metrics["avg_latency_us"]
              for r in latency}
    assert by_key[(True, "fixed", "ab")] < by_key[(False, "-", "ab")]
    assert by_key[(True, "fixed", "nab")] < by_key[(False, "-", "nab")]
    # Segmented points actually segmented; the baseline stayed untouched.
    for r in latency:
        segs = int(r.counters.get("segments_sent", 0))
        if r.point.config.pipeline is not None and r.point.build == "ab":
            assert segs > 0
        if r.point.config.pipeline is None:
            assert "segments_sent" not in r.counters

    # The crash scenario healed mid-pipeline and kept the honest sums:
    # full-cluster result for the in-flight iteration, survivor sum after.
    fault = [r for r in parallel if r.point.kind == "fault_reduce"]
    assert len(fault) == 1
    f = fault[0]
    size = f.point.config.size
    assert f.metrics["survivor_ok"] == 1.0
    assert f.metrics["first_result"] == size * (size + 1) / 2
    assert f.metrics["last_result"] == size * (size + 1) / 2 - 25.0
    assert f.counters["subtrees_healed"] >= 1
    assert f.counters["segments_sent"] > 0

    path = save_bench_json("pipeline_smoke", parallel, jobs=jobs)
    payload = load_bench_json(path)
    verdict = compare_payloads(payload, payload)
    assert verdict["ok"]
    assert verdict["shared_points"] == len(points)
