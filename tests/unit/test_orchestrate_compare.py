"""Unit tests for the bit-identity gate
(``python -m repro.orchestrate.compare``): verdicts and exit codes."""

from __future__ import annotations

import copy
import json
import math

import pytest

from repro.orchestrate.benchjson import (bench_payload, events_per_sec,
                                         load_bench_json, write_bench_json)
from repro.orchestrate.compare import (EXIT_CLEAN, EXIT_REGRESSION,
                                       EXIT_USAGE, compare_payloads, main,
                                       render_verdict)
from repro.orchestrate.points import ConfigSpec, PointResult, SweepPoint


def _result(size: int, util: float, wall: float) -> PointResult:
    point = SweepPoint(experiment="t", kind="cpu_util",
                       config=ConfigSpec("paper", size, 1), build="ab",
                       elements=4, max_skew_us=1000.0, iterations=5)
    return PointResult(point=point, metrics={"avg_util_us": util},
                       wall_time_s=wall, counters={"events": 100})


def _payload(**overrides) -> dict:
    results = [_result(2, 10.0, 1.0), _result(4, 12.0, 2.0)]
    payload = bench_payload("t", results, jobs=1, sha="cafe")
    payload.update(overrides)
    return payload


def _write(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_self_compare_is_clean(tmp_path):
    path = _write(tmp_path, "a.json", _payload())
    assert main([path, path]) == EXIT_CLEAN


def test_metric_drift_fails(tmp_path):
    old = _payload()
    new = copy.deepcopy(old)
    new["points"][1]["metrics"]["avg_util_us"] *= 1.001
    verdict = compare_payloads(old, new)
    assert not verdict["ok"]
    assert len(verdict["metric_drifts"]) == 1
    assert main([_write(tmp_path, "old.json", old),
                 _write(tmp_path, "new.json", new)]) == EXIT_REGRESSION


def test_one_ulp_metric_change_fails_and_is_named(tmp_path, capsys):
    """Metrics compare with ``!=``: there is no tolerance to hide in."""
    old = _payload()
    new = copy.deepcopy(old)
    new["points"][1]["metrics"]["avg_util_us"] = math.nextafter(12.0, 13.0)
    assert compare_payloads(old, new)["metric_drifts"] == [
        {"key": old["points"][1]["key"], "metric": "avg_util_us",
         "old": 12.0, "new": 12.000000000000002}]
    assert main([_write(tmp_path, "old.json", old),
                 _write(tmp_path, "new.json", new)]) == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "METRIC DRIFT in 1 value(s)" in out
    row = next(line for line in out.splitlines() if " avg_util_us " in line)
    assert "n=4" in row and " 12.0 " in row and "12.000000000000002" in row


def test_counter_drift_fails_and_names_point_and_counter(tmp_path, capsys):
    """Counters are simulator outputs like metrics: equal is clean (see
    the self-compare above), one event more or fewer fails the gate."""
    old = _payload()
    new = copy.deepcopy(old)
    new["points"][1]["counters"]["events"] += 1
    verdict = compare_payloads(old, new)
    assert not verdict["ok"]
    assert not verdict["metric_drifts"]
    assert verdict["counter_drifts"] == [
        {"key": old["points"][1]["key"], "counter": "events",
         "old": 100, "new": 101}]
    assert main([_write(tmp_path, "old.json", old),
                 _write(tmp_path, "new.json", new)]) == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "COUNTER DRIFT in 1 value(s)" in out
    row = next(line for line in out.splitlines() if " events " in line)
    assert "n=4" in row and "100" in row and "101" in row


@pytest.mark.parametrize("side", ["old", "new"])
def test_counter_missing_on_one_side_is_drift(side):
    payloads = {"old": _payload(), "new": _payload()}
    payloads[side]["points"][0]["counters"]["ops"] = 7
    verdict = compare_payloads(payloads["old"], payloads["new"])
    assert not verdict["ok"]
    (drift,) = verdict["counter_drifts"]
    assert drift["counter"] == "ops"
    assert {drift["old"], drift["new"]} == {7, None}


def test_string_counters_compare_by_equality(tmp_path, capsys):
    old = _payload()
    for record in old["points"]:
        record["counters"]["workload_pattern"] = "bursty"
    new = copy.deepcopy(old)
    assert compare_payloads(old, new)["ok"]
    new["points"][0]["counters"]["workload_pattern"] = "uniform_random"
    assert len(compare_payloads(old, new)["counter_drifts"]) == 1
    assert main([_write(tmp_path, "old.json", old),
                 _write(tmp_path, "new.json", new)]) == EXIT_REGRESSION
    row = next(line for line in capsys.readouterr().out.splitlines()
               if " workload_pattern " in line)
    assert "n=2" in row and "'bursty'" in row and "'uniform_random'" in row


def test_wall_time_alone_never_fails_the_gate(tmp_path):
    """Host time is not this gate's business (``perf/compare.py`` owns
    it): a pair differing only in ``wall_time_s``, x3, is clean."""
    old = _payload()
    slow = copy.deepcopy(old)
    for record in slow["points"]:
        record["wall_time_s"] *= 3.0
    verdict = compare_payloads(old, slow)
    assert verdict["ok"] and "wall" not in verdict
    assert main([_write(tmp_path, "base.json", old),
                 _write(tmp_path, "slow.json", slow)]) == EXIT_CLEAN


def test_missing_point_fails(tmp_path):
    old = _payload()
    new = copy.deepcopy(old)
    del new["points"][0]
    verdict = compare_payloads(old, new)
    assert not verdict["ok"]
    assert len(verdict["missing_points"]) == 1
    assert main([_write(tmp_path, "old.json", old),
                 _write(tmp_path, "new.json", new)]) == EXIT_REGRESSION


def test_added_points_are_ignored(tmp_path):
    old = _payload()
    new = copy.deepcopy(old)
    new["points"].append({"key": {"experiment": "t", "kind": "cpu_util",
                                  "variant": "paper", "size": 8,
                                  "skew_us": 1000.0, "build": "ab",
                                  "elements": 4, "seed": 1,
                                  "iterations": 5},
                          "metrics": {"avg_util_us": 14.0},
                          "wall_time_s": 3.0, "counters": {}, "seed": 1})
    verdict = compare_payloads(old, new)
    assert verdict["ok"]
    assert len(verdict["added_points"]) == 1


def test_usage_errors(tmp_path):
    good = _write(tmp_path, "good.json", _payload())
    assert main([good, str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad_schema = _write(tmp_path, "bad.json", _payload(schema=99))
    assert main([good, bad_schema]) == EXIT_USAGE
    assert main(["--no-such-flag"]) == EXIT_USAGE


def test_usage_error_messages_are_clean(tmp_path, capsys):
    """Missing files and schema mismatches must produce a one-line
    ``error:`` message on stderr (no traceback) and exit 2 — the CI gate
    surfaces this output directly."""
    good = _write(tmp_path, "good.json", _payload())
    assert main([good, str(tmp_path / "nope.json")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    bad = _write(tmp_path, "bad.json", _payload(schema=99))
    assert main([good, bad]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unsupported schema" in err and "Traceback" not in err
    not_json = tmp_path / "corrupt.json"
    not_json.write_text("{nope")
    assert main([good, str(not_json)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def _many_drift_payloads(n: int = 40):
    """Baseline + candidate where every one of ``n`` points drifts in
    both of its metrics."""
    results = []
    for i in range(n):
        point = SweepPoint(experiment="t", kind="cpu_util",
                           config=ConfigSpec("paper", 2, 1), build="ab",
                           elements=4, max_skew_us=float(i),
                           iterations=5)
        results.append(PointResult(
            point=point, metrics={"avg_util_us": 10.0, "p99_us": 20.0},
            wall_time_s=1.0, counters={"events": 100}))
    old = bench_payload("t", results, jobs=1, sha="cafe")
    new = copy.deepcopy(old)
    for record in new["points"]:
        record["metrics"]["avg_util_us"] *= 2.0
        record["metrics"]["p99_us"] *= 3.0
    return old, new


def test_all_metric_drifts_reported_in_one_run(tmp_path, capsys):
    """The gate must name EVERY mismatched metric in a single run — a
    40-point sweep where both metrics drift yields 80 rows, none elided."""
    old, new = _many_drift_payloads(40)
    verdict = compare_payloads(old, new)
    assert len(verdict["metric_drifts"]) == 80
    assert main([_write(tmp_path, "old.json", old),
                 _write(tmp_path, "new.json", new)]) == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "METRIC DRIFT in 80 value(s)" in out
    assert "more" not in out                 # nothing truncated by default
    assert out.count("avg_util_us") == 40
    assert out.count("p99_us") == 40


def test_all_missing_points_are_listed():
    old, _ = _many_drift_payloads(12)
    empty = copy.deepcopy(old)
    empty["points"] = []
    verdict = compare_payloads(old, empty)
    text = render_verdict(verdict, "old", "new")
    assert "MISSING from new: 12 point(s)" in text
    assert "more" not in text and text.count("skew=") == 12


def test_duplicate_key_is_a_clean_load_error(tmp_path, capsys):
    """Two records with one key would collapse in the compare join and
    leave a point unchecked; the gate refuses the file instead."""
    good = _write(tmp_path, "good.json", _payload())
    dup = _payload()
    dup["points"].append(copy.deepcopy(dup["points"][0]))
    with pytest.raises(ValueError, match="points #0 and #2"):
        compare_payloads(dup, dup)
    assert main([good, _write(tmp_path, "dup.json", dup)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: new (") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert "duplicate BENCH key: points #0 and #2" in err
    assert "t/cpu_util n=2" in err


def test_both_load_errors_reported_in_one_run(tmp_path, capsys):
    """When baseline AND candidate are unreadable, one run names both."""
    missing = str(tmp_path / "missing.json")
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{nope")
    assert main([missing, str(corrupt)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"old ({missing})" in err
    assert f"new ({corrupt})" in err
    assert "Traceback" not in err


def test_a_bad_file_is_named_once(tmp_path, capsys):
    """``load_bench_json`` names the file for library callers; the CLI,
    which prints ``role (path)`` itself, does not repeat it."""
    corrupt = _write(tmp_path, "corrupt.json", _payload(points=7))
    missing = str(tmp_path / "missing.json")
    assert main([missing, corrupt]) == EXIT_USAGE
    old_line, new_line = capsys.readouterr().err.splitlines()
    assert old_line == f"error: old ({missing}): No such file or directory"
    assert new_line == (f"error: new ({corrupt}): points must be a list, "
                        f"got 7")


def test_nan_agrees_with_nan_and_with_nothing_else(tmp_path):
    """``nan != nan``: a metric that is NaN on both sides is not drift,
    NaN against a number is — through the file door too."""
    old = _payload()
    old["points"][0]["metrics"]["avg_util_us"] = math.nan
    path = _write(tmp_path, "nan.json", old)
    assert main([path, path]) == EXIT_CLEAN
    verdict = compare_payloads(_payload(), old)
    assert not verdict["ok"]
    (drift,) = verdict["metric_drifts"]
    assert drift["old"] == 10.0 and math.isnan(drift["new"])


def test_events_per_sec_in_every_payload():
    """Every point record and the payload top level carry events/sec,
    derived from counters — and never inside ``metrics``, where the
    exact-compare gate would see host noise as drift."""
    payload = _payload()
    for record in payload["points"]:
        assert record["events_per_sec"] == pytest.approx(
            record["counters"]["events"] / record["wall_time_s"])
        assert "events_per_sec" not in record["metrics"]
    assert payload["events_per_sec"] == pytest.approx(200.0 / 3.0)


def test_events_per_sec_null_without_event_counter():
    assert events_per_sec({}, 1.0) is None
    assert events_per_sec({"events": 0}, 1.0) is None
    assert events_per_sec({"events": 10}, 0.0) is None
    res = _result(2, 10.0, 1.0)
    res.counters = {}
    payload = bench_payload("t", [res], sha="cafe")
    assert payload["points"][0]["events_per_sec"] is None
    assert payload["events_per_sec"] is None


def test_events_per_sec_does_not_trip_compare():
    """Two runs of the same sweep differ in throughput but not metrics:
    the gate must stay clean."""
    old = _payload()
    new = copy.deepcopy(old)
    for record in new["points"]:
        record["events_per_sec"] = (record["events_per_sec"] or 0.0) * 7.0
    new["events_per_sec"] = 1e9
    assert compare_payloads(old, new)["ok"]


def test_write_and_load_round_trip(tmp_path):
    results = [_result(2, 10.0, 1.0)]
    path = write_bench_json("t", results, directory=tmp_path, jobs=3,
                            sha="cafe")
    assert path.name == "BENCH_t.json"
    payload = load_bench_json(path)
    assert payload["jobs"] == 3
    assert payload["git_sha"] == "cafe"
    assert payload["points"][0]["metrics"]["avg_util_us"] == 10.0
    assert payload["total_wall_s"] == 1.0
