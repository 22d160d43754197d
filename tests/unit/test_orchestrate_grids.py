"""The grid registry (``repro.orchestrate.points.GRIDS``) is the single
source of truth: each grid is its axes over a point maker, and the pinned
points, CLI names, the CI matrix and race-smoke's scenario list all have
to agree with it."""

from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

import pytest

from repro.orchestrate.__main__ import build_parser, main
from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.points import GRIDS

REPO = Path(__file__).resolve().parents[2]


def test_registry_names_and_bench_files():
    assert list(GRIDS) == ["fig7", "topo", "faults", "pipeline", "schedule",
                           "tenancy", "pap", "scale"]
    assert [g.bench for g in GRIDS.values()] == [
        "smoke", "topo_smoke", "faults_smoke", "pipeline_smoke",
        "schedule_smoke", "tenancy_smoke", "pap_smoke", "scale"]


@pytest.mark.parametrize("name", list(GRIDS))
def test_builder_matches_the_committed_pin(name):
    """Each registered grid at seed 0 is its slice of the 59-point pin
    the host-time benchmark replays (read-only here); the scale grid is
    not pinned there and only has to keep its six distinct keys."""
    grid = GRIDS[name]
    points = grid.points(seed=0)
    if name == "scale":
        assert len({json.dumps(p.key(), sort_keys=True)
                    for p in points}) == 6
        return
    pinned = json.loads(
        (REPO / "perf" / "expected" / "smoke_grid.json").read_text())
    mine = [d for d in pinned
            if d["experiment"].split("-")[0] == grid.bench]
    assert mine and json.loads(json.dumps(
        [p.to_dict() for p in points])) == mine


def test_pin_is_covered_by_registered_grids():
    pinned = json.loads(
        (REPO / "perf" / "expected" / "smoke_grid.json").read_text())
    benches = {g.bench for g in GRIDS.values()}
    assert len(pinned) == 59
    assert {d["experiment"].split("-")[0] for d in pinned} <= benches


@pytest.mark.parametrize("name", list(GRIDS))
def test_smoke_parses_every_grid_name(name):
    args = build_parser().parse_args(
        ["smoke", name, "--jobs", "1", "--seed", "3", "--out", "x"])
    assert args.grid is GRIDS[name]
    assert args.iterations is None      # = the grid's own default


def test_bare_smoke_is_the_first_grid():
    assert build_parser().parse_args(["smoke"]).grid is GRIDS["fig7"]
    assert main(["smoke", "nope"]) == 2
    assert main(["smoke-fig7"]) == 2    # one spelling per command


def test_sizes_reach_only_grids_with_a_size_axis(tmp_path, capsys):
    assert main(["smoke", "scale", "--jobs", "1", "--sizes", "4", "8",
                 "--out", str(tmp_path)]) == 0
    payload = load_bench_json(tmp_path / "BENCH_scale.json")
    assert sorted({r["key"]["size"] for r in payload["points"]}) == [4, 8]
    # Unmonitored points: no invariant report is written.
    assert not list(tmp_path.glob("*invariant-report.json"))
    capsys.readouterr()
    assert main(["smoke", "topo", "--sizes", "4",
                 "--out", str(tmp_path)]) == 2
    assert "no size axis" in capsys.readouterr().err


def test_tenancy_cache_flags(tmp_path):
    args = ["smoke", "tenancy", "--jobs", "1", "--iterations", "1"]
    no_cache = tmp_path / "nocache"
    assert main([*args, "--out", str(no_cache)]) == 0
    assert sorted(p.name for p in no_cache.iterdir()) == [
        "BENCH_tenancy_smoke.json", "tenancy-invariant-report.json"]
    assert main([*args, "--no-cache", "--out", str(no_cache)]) == 2

    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cache = tmp_path / "shared-cache"
    assert main([*args, "--cache", str(cache), "--out", str(cold)]) == 0
    assert main([*args, "--cache", str(cache), "--out", str(warm)]) == 0
    assert not (cold / "result-cache").exists()
    stats = json.loads(
        (warm / "tenancy-smoke-cache-stats.json").read_text())
    assert (stats["hits"], stats["misses"]) == (8, 0)
    assert (load_bench_json(cold / "BENCH_tenancy_smoke.json")["points"]
            == load_bench_json(warm / "BENCH_tenancy_smoke.json")["points"])


def test_ci_matrix_lists_exactly_the_registered_grids():
    """A grid without CI coverage (or a stale CI entry) fails tier-1.  Text
    check on purpose: no YAML parser in the test dependencies."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(r"^\s+grid: \[(.*)\]$", text, flags=re.M)
    assert [name.strip() for name in matrix.split(",")] == list(GRIDS)


def test_race_smoke_checks_every_grid_but_scale():
    """CI's race-smoke job hand-lists its ``--scenario`` flags: every
    registered grid but the minutes-long scale grid, each once."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = text[text.index("\n  race-smoke:"):text.index("\n  bench-claims:")]
    assert sorted(re.findall(r"--scenario (\S+)", job)) == sorted(
        set(GRIDS) - {"scale"})


@pytest.mark.parametrize("module,argv", [
    ("repro.orchestrate.__main__", ["smoke", "fig7", "--out", "{tmp}"]),
    ("repro.orchestrate.__main__", ["refresh-baseline", "fig7", "--dir",
                                    "{tmp}"]),
    ("repro.analysis.races", ["--scenario", "fig7", "--out", "{tmp}/r"]),
    ("repro.experiments.__main__", ["fig7", "--bench-json", "{tmp}/b"]),
], ids=["smoke", "refresh-baseline", "races", "experiments"])
def test_zero_iterations_is_refused_in_one_line(tmp_path, capsys, module,
                                                argv):
    """Every made point is validated before any runs, so a zero
    iteration count is one ``error:`` line and exit 2, and nothing is
    written."""
    _assert_refused(tmp_path, capsys, module,
                    [*argv, "--iterations", "0"], "iterations=0")


@pytest.mark.parametrize("grid,sizes,refusal", [
    ("fig7", ["0"], "asked for 0"),
    ("fig7", ["-3"], "asked for -3"),
    ("fig7", ["8", "40"], "asked for 40"),    # the paper factory's 32
    ("scale", ["0"], "size must be >= 1"),
], ids=["zero", "negative", "past-the-factory", "scale-zero"])
def test_a_size_the_factory_cannot_build_is_refused_in_one_line(
        tmp_path, capsys, grid, sizes, refusal):
    """``validate`` builds each point's config, so a cluster size its
    factory refuses fails before any point runs, not twice in a worker."""
    _assert_refused(tmp_path, capsys, "repro.orchestrate.__main__",
                    ["smoke", grid, "--out", "{tmp}", "--sizes", *sizes],
                    refusal)


def _assert_refused(tmp_path, capsys, module, argv, refusal):
    main = importlib.import_module(module).main
    argv = [a.format(tmp=tmp_path) for a in argv]
    capsys.readouterr()
    assert main([*argv, "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert refusal in err
    assert not list(tmp_path.iterdir())
