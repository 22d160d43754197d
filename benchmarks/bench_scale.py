"""Scalability-extrapolation benchmark: the paper's central prediction —
the factor of improvement keeps growing with system size — checked out to
256 nodes (8x the paper's testbed).  The smoke-marked sweep below drives
the same DES-throughput grid as CI's scale-smoke job (``orchestrate
smoke-scale``) at preset-scaled sizes."""

import pytest

from repro.experiments import scale
from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.points import GRIDS
from repro.orchestrate.runner import run_points

from conftest import (JOBS, SEED, SMOKE, iters, run_once, save_bench_json,
                      save_table)


def test_scale_extrapolation(benchmark):
    def run():
        return scale.run(iterations=iters(15, 2), seed=SEED, jobs=JOBS)

    out = run_once(benchmark, run)
    save_table("scale", out.render())
    save_bench_json("scale", out.points)
    print()
    print(out.render())

    table = out.tables[0]
    factors = table._find("factor").values
    sizes = table.x_values
    # monotone growth from 16 through 256 nodes
    for (s1, f1), (s2, f2) in zip(zip(sizes, factors),
                                  zip(sizes[1:], factors[1:])):
        assert f2 > f1, f"factor fell from {f1:.2f}@{s1} to {f2:.2f}@{s2}"
    # the paper's 5.1 at 32 nodes roughly doubles by 256
    assert factors[sizes.index(32)] > 4.0
    assert factors[-1] > 1.6 * factors[sizes.index(32)]


@pytest.mark.smoke
def test_scale_sweep_reports_events_per_sec(benchmark):
    """The CI scale grid end to end: fat-tree + torus points through the
    process pool, every emitted record carrying an events/sec figure.
    Smoke preset shrinks the sizes; the real 1024-4096 sweep belongs to
    the dedicated scale-smoke CI job and its timeout."""
    sizes = (64, 128) if SMOKE else (1024, 2048, 4096)
    points = GRIDS["scale"].points(seed=SEED, size=sizes)

    def run():
        return run_points(points, jobs=max(2, JOBS))

    results = run_once(benchmark, run)
    assert len(results) == len(points)
    path = save_bench_json("scale", results, jobs=max(2, JOBS))
    payload = load_bench_json(path)
    assert payload["events_per_sec"] > 0
    for record in payload["points"]:
        assert record["counters"]["events"] > 0
        assert record["events_per_sec"] > 0
