"""Unit tests for the one grid primitive (``repro.bench.sweep``): axes are
declared once, points run in product order, results are addressed by axis
value."""

from __future__ import annotations

import itertools

import pytest

from repro.bench.report import Table
from repro.bench.sweep import sweep
from repro.orchestrate.points import ConfigSpec, SweepPoint

SIZES = (2, 4)
SKEWS = (0.0, 300.0, 600.0)
BUILDS = ("nab", "ab")


def _point(build: str, size: int, skew: float, **extra) -> SweepPoint:
    return SweepPoint(experiment="grid", kind="cpu_util",
                      config=ConfigSpec("paper", size, 1), build=build,
                      elements=4, max_skew_us=skew, iterations=1, warmup=0,
                      **extra)


@pytest.fixture(scope="module")
def cells():
    return sweep({"build": BUILDS, "size": SIZES, "skew": SKEWS}, _point)


def test_submission_order_is_the_product_of_the_axes(cells):
    submitted = [(r.point.build, r.point.config.size, r.point.max_skew_us)
                 for r in cells.points]
    assert submitted == list(itertools.product(BUILDS, SIZES, SKEWS))
    assert cells.axes == {"build": BUILDS, "size": SIZES, "skew": SKEWS}


def test_lookup_is_by_axis_value_not_by_position(cells):
    for build, size, skew in itertools.product(BUILDS, SIZES, SKEWS):
        point = cells[build, size, skew].point
        assert (point.build, point.config.size, point.max_skew_us) == \
            (build, size, skew)
    # The same grid declared (and therefore submitted) in another order
    # answers every lookup identically.
    other = sweep({"skew": SKEWS[::-1], "size": SIZES, "build": BUILDS},
                  lambda skew, size, build: _point(build, size, skew))
    assert [r.point.max_skew_us for r in other.points[:4]] == [600.0] * 4
    for build, size, skew in itertools.product(BUILDS, SIZES, SKEWS):
        assert other[skew, size, build].metrics == \
            cells[build, size, skew].metrics
    assert other.series("avg_util_us", along="skew", size=4, build="ab") \
        == cells.series("avg_util_us", along="skew", build="ab",
                        size=4)[::-1]


def test_series_reads_one_axis_with_the_rest_pinned(cells):
    series = cells.series("avg_util_us", along="skew", build="nab", size=4)
    assert series == [cells["nab", 4, skew].metrics["avg_util_us"]
                      for skew in SKEWS]
    assert series == sorted(series)          # nab pays for skew


def test_fill_adds_one_labelled_series_per_unpinned_cell(cells):
    table = Table("t", "skew_us", SKEWS)
    cells.fill(table, "avg_util_us", along="skew", label="{build}@{size}")
    assert [s.label for s in table.series] == [
        "nab@2", "nab@4", "ab@2", "ab@4"]       # axis declaration order
    assert table._find("ab@4").values == cells.series(
        "avg_util_us", along="skew", build="ab", size=4)
    pinned = Table("t", "nodes", SIZES)
    cells.fill(pinned, "signals", along="size", label="{build}", skew=300.0)
    assert [s.label for s in pinned.series] == ["nab", "ab"]
    assert pinned._find("ab").values == [
        cells["ab", size, 300.0].metrics["signals"] for size in SIZES]


def test_series_refuses_an_under_specified_cell(cells):
    with pytest.raises(ValueError, match="pin every axis but one"):
        cells.series("avg_util_us", along="skew", build="nab")
    with pytest.raises(ValueError, match="pin every axis but one"):
        cells.series("avg_util_us", along="skew", skew=0.0, build="nab",
                     size=2)
    with pytest.raises(ValueError, match="pin every axis but one"):
        cells.series("avg_util_us", along="nodes", build="nab", size=2)


def test_make_returning_none_skips_the_cell():
    grid = sweep({"build": BUILDS, "size": SIZES},
                 lambda build, size: (None if (build, size) == ("nab", 4)
                                      else _point(build, size, 0.0)))
    assert [(r.point.build, r.point.config.size) for r in grid.points] == \
        [("nab", 2), ("ab", 2), ("ab", 4)]
    assert grid["ab", 4].point.config.size == 4
    with pytest.raises(KeyError) as exc:
        grid["nab", 4]
    assert "'build': 'nab', 'size': 4" in str(exc.value)
    assert "\n" not in str(exc.value)
    with pytest.raises(KeyError):
        grid.series("avg_util_us", along="size", build="nab")
    with pytest.raises(KeyError):
        grid["ab", 8]                        # outside the axes


def test_repeated_axis_value_is_refused():
    with pytest.raises(ValueError, match="axis 'size' repeats"):
        sweep({"build": BUILDS, "size": (2, 2)},
              lambda build, size: _point(build, size, 0.0))


def test_violations_sum_the_invariant_reports(cells):
    armed = sweep({"build": BUILDS},
                  lambda build: _point(build, 2, 0.0,
                                       collect_invariants=True))
    assert all(r.invariant_report["checks"] > 0 for r in armed.points)
    assert armed.violations() == 0
    assert cells.violations() == 0           # unarmed points report none
