"""Unit tests for the scale sweep path: the ``scale`` grid, the
``smoke scale`` / ``refresh-baseline`` / ``summarize`` CLI commands, and
the events/sec plumbing they share.  The CLI runs use toy sizes — the
real 1024-4096 grid is the CI scale-smoke job's business."""

from __future__ import annotations

import json

from repro.orchestrate.__main__ import main
from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.points import GRIDS


def test_scale_grid_covers_sizes_and_topologies():
    points = GRIDS["scale"].points()
    assert len(points) == 6
    cells = {(p.config.size, p.config.net.topology) for p in points}
    assert cells == {(size, topo)
                     for size in (1024, 2048, 4096)
                     for topo in ("fattree", "torus")}
    for p in points:
        assert p.experiment == "scale_smoke"
        assert p.kind == "cpu_util"
        assert p.build == "ab"
        assert p.config.factory == "extrapolated"
        # Scale points run without the invariant monitor: the wall-clock
        # budget is the point, and the smoke grids own invariant coverage.
        assert not p.collect_invariants


def test_scale_keys_are_distinct():
    keys = [json.dumps(p.key(), sort_keys=True)
            for p in GRIDS["scale"].points()]
    assert len(set(keys)) == len(keys)


def test_smoke_scale_cli_writes_bench_json(tmp_path, capsys):
    rc = main(["smoke", "scale", "--jobs", "1", "--sizes", "4", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = load_bench_json(tmp_path / "BENCH_scale.json")
    assert payload["name"] == "scale"
    assert len(payload["points"]) == 4
    assert payload["events_per_sec"] > 0
    for record in payload["points"]:
        assert record["events_per_sec"] > 0
    assert "events/s" in capsys.readouterr().out


def test_refresh_baseline_cli(tmp_path, capsys):
    # Redirect every grid's output: the committed in-tree baselines must
    # never be touched by a test run.
    rc = main(["refresh-baseline", "fig7", "schedule", "pap", "--jobs", "1",
               "--iterations", "2", "--dir", str(tmp_path)])
    assert rc == 0
    for name in ("fig7", "schedule", "pap"):
        grid = GRIDS[name]
        payload = load_bench_json(grid.baseline_path(str(tmp_path)))
        assert payload["name"] == grid.bench
        assert payload["points"]
        # --iterations reaches every refreshed grid, not just fig7.
        assert {r["key"]["iterations"] for r in payload["points"]} == {2}
    assert "commit it" in capsys.readouterr().out


def test_refresh_baseline_defaults_to_grids_with_a_baseline(tmp_path,
                                                            capsys):
    assert main(["refresh-baseline", "--dir", str(tmp_path)]) == 2
    assert "name the grids" in capsys.readouterr().err
    # An existing baseline selects its grid; each grid keeps its own
    # default iteration count when --iterations is not given.
    seeded = tmp_path / "BENCH_pap_smoke.baseline.json"
    seeded.write_text("{}")
    assert main(["refresh-baseline", "--jobs", "1",
                 "--dir", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [seeded.name]
    payload = load_bench_json(seeded)
    assert [r["key"] for r in payload["points"]] == [
        p.key() for p in GRIDS["pap"].points()]


def test_default_baseline_is_committed():
    """The CI gate compares against this path; it must exist in-tree and
    parse as a schema-1 smoke payload with the full default grid."""
    payload = load_bench_json(GRIDS["fig7"].baseline_path())
    assert payload["name"] == "smoke"
    assert len(payload["points"]) == 6
    for record in payload["points"]:
        assert record["key"]["experiment"] == "smoke"
        assert record["metrics"]


def test_summarize_cli_renders_markdown(tmp_path, capsys):
    rc = main(["smoke", "scale", "--jobs", "1", "--sizes", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    rc = main(["summarize", str(tmp_path / "BENCH_scale.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("| sweep | point |")
    assert "**total**" in out
    assert "| scale |" in out


def test_summarize_cli_rejects_missing_file(tmp_path, capsys):
    rc = main(["summarize", str(tmp_path / "nope.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_summarize_label_carries_the_experiment_tag(tmp_path, capsys):
    """pap rows share kind/size/build/variant across algorithms; only the
    experiment tag tells them apart."""
    key = {"experiment": "pap_smoke-bursty-nab", "kind": "pap",
           "variant": "quiet+0a1b2c3d", "size": 8, "skew_us": 0.0,
           "build": "nab", "elements": 256, "seed": 1, "iterations": 6}
    records = [{"key": dict(key, experiment=tag), "metrics": {},
                "wall_time_s": 0.1, "counters": {"events": 10},
                "events_per_sec": 100.0, "seed": 1}
               for tag in ("pap_smoke-bursty-nab", "pap_smoke-bursty-sra")]
    path = tmp_path / "BENCH_pap_smoke.json"
    path.write_text(json.dumps({"schema": 1, "name": "pap_smoke",
                                "points": records}))
    assert main(["summarize", str(path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "| pap_smoke | pap_smoke-" in line]
    assert len(rows) == len(set(rows)) == 2
    assert "pap_smoke-bursty-sra/pap" in rows[1]
