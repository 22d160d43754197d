"""Unit tests for repro.orchestrate.points: specs, keys, repro commands."""

from __future__ import annotations

import gc
import json

import pytest

from repro.bench.cpu_util import cpu_util_benchmark
from repro.config import AbParams, NetParams
from repro.mpich.rank import MpiBuild
from repro.orchestrate.benchjson import bench_payload
from repro.orchestrate.points import (GRIDS, ConfigSpec, PointResult,
                                      SweepPoint, execute_point)
from repro.sim.cpu import HostCpu


def test_config_spec_round_trip_plain():
    spec = ConfigSpec("paper", 8, 3)
    again = ConfigSpec.from_dict(spec.to_dict())
    assert again == spec
    cfg = again.build()
    assert cfg.size == 8


def test_config_spec_round_trip_with_overrides():
    spec = ConfigSpec("paper", 4, 1,
                      ab=AbParams(eager_limit_bytes=512),
                      net=NetParams(drop_prob=0.05))
    again = ConfigSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    cfg = again.build()
    assert cfg.ab.eager_limit_bytes == 512
    assert cfg.net.drop_prob == 0.05


def test_config_spec_unknown_factory():
    with pytest.raises(ValueError, match="unknown config factory"):
        ConfigSpec("nope", 4, 1).build()


def test_variant_distinguishes_overrides():
    base = ConfigSpec("paper", 4, 1)
    limited = ConfigSpec("paper", 4, 1, ab=AbParams(eager_limit_bytes=512))
    assert base.variant() == "paper"
    assert limited.variant() != base.variant()
    assert limited.variant().startswith("paper+")
    # stable: same overrides -> same tag
    assert limited.variant() == \
        ConfigSpec("paper", 4, 1,
                   ab=AbParams(eager_limit_bytes=512)).variant()
    # ...and the tag lands in the merge/BENCH key
    p_base = SweepPoint(experiment="t", kind="cpu_util", config=base,
                        build="ab", elements=4)
    p_lim = SweepPoint(experiment="t", kind="cpu_util", config=limited,
                       build="ab", elements=4)
    assert p_base.key() != p_lim.key()


def test_sweep_point_round_trip_and_repro_command():
    point = SweepPoint(experiment="fig7", kind="cpu_util",
                       config=ConfigSpec("paper", 4, 2), build="nab",
                       elements=32, max_skew_us=500.0, iterations=7)
    again = SweepPoint.from_dict(point.to_dict())
    assert again == point
    cmd = point.repro_command()
    assert cmd.startswith("PYTHONPATH=src python -m repro.orchestrate "
                          "run-point ")
    # the embedded JSON replays to the identical point
    payload = cmd.split("run-point ", 1)[1].strip("'")
    assert SweepPoint.from_dict(json.loads(payload)) == point


def test_execute_point_matches_direct_benchmark():
    spec = ConfigSpec("paper", 4, 1)
    point = SweepPoint(experiment="t", kind="cpu_util", config=spec,
                       build="ab", elements=4, max_skew_us=1000.0,
                       iterations=5)
    res = execute_point(point)
    direct = cpu_util_benchmark(spec.build(), MpiBuild.AB, elements=4,
                                max_skew_us=1000.0, iterations=5)
    assert res.metrics["avg_util_us"] == direct.avg_util_us
    assert res.counters["events"] == direct.sim_counters["events"]
    assert res.wall_time_s > 0.0
    assert res.invariant_report is None  # not requested


def _paper8_point() -> SweepPoint:
    return SweepPoint(experiment="t", kind="cpu_util",
                      config=ConfigSpec("paper", 8, 1), build="ab",
                      elements=4, max_skew_us=1000.0, iterations=3)


def test_execute_point_frees_its_cluster():
    """The point's cluster is cyclic garbage once the point returns; the
    one young pass after it frees all of it, so nothing is left for the
    next collection (the next point would otherwise build beside it)."""
    gc.collect()
    execute_point(_paper8_point())
    assert not [o for o in gc.get_objects() if isinstance(o, HostCpu)]
    assert gc.collect() == 0


def test_execute_point_reenables_collector_after_failure(tmp_path):
    point = SweepPoint(experiment="t", kind="chaos",
                       config=ConfigSpec("paper", 2, 1), build="ab",
                       elements=4,
                       options={"counter_file": str(tmp_path / "count"),
                                "succeed_after": 1})
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="failing on purpose"):
        execute_point(point)
    assert gc.isenabled()


def test_execute_point_leaves_a_disabled_collector_alone():
    gc.disable()
    try:
        before = [s["collections"] for s in gc.get_stats()]
        execute_point(_paper8_point())
        assert not gc.isenabled()
        assert [s["collections"] for s in gc.get_stats()] == before
    finally:
        gc.enable()


def test_bench_payload_refuses_option_only_twins():
    """SweepPoint.key() does not cover executor options, so two points
    that differ only there share a BENCH key; writing both must fail
    naming both points, not silently emit a file that loads as one."""
    def result(gap_us: float) -> PointResult:
        point = SweepPoint(experiment="t", kind="fault_reduce",
                           config=ConfigSpec("paper", 4, 1), build="ab",
                           elements=4, iterations=2,
                           options={"gap_us": gap_us})
        return PointResult(point=point, metrics={"makespan_us": gap_us},
                           wall_time_s=0.1, counters={})
    twins = [result(200.0), result(1200.0)]
    assert twins[0].point.key() == twins[1].point.key()
    with pytest.raises(ValueError) as exc:
        bench_payload("t", twins)
    message = str(exc.value)
    assert "'gap_us': 200.0" in message and "'gap_us': 1200.0" in message
    assert message.count(twins[0].point.label()) == 2
    assert len(bench_payload("t", twins[:1])["points"]) == 1


def test_execute_point_collects_invariants():
    point = SweepPoint(experiment="t", kind="cpu_util",
                       config=ConfigSpec("paper", 2, 1), build="ab",
                       elements=4, iterations=3, collect_invariants=True)
    res = execute_point(point)
    assert res.invariant_report is not None
    assert res.invariant_report["checks"] > 0
    assert res.invariant_report["violation_count"] == 0


def test_execute_point_unknown_kind():
    point = SweepPoint(experiment="t", kind="nope",
                       config=ConfigSpec("paper", 2, 1), build="ab",
                       elements=4)
    with pytest.raises(ValueError, match="unknown point kind"):
        execute_point(point)


def test_smoke_points_grid():
    points = GRIDS["fig7"].points(seed=9, iterations=4)
    assert len(points) == 6  # 3 sizes x 2 builds
    assert {p.build for p in points} == {"nab", "ab"}
    assert all(p.config.seed == 9 and p.collect_invariants for p in points)
