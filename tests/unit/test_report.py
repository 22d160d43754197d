"""Tests for the table/series report utilities."""

import math

import pytest

from repro.bench.report import Series, Table


def make_table():
    t = Table("Demo", "x", [1, 2, 4])
    t.add_series("nab", [10.0, 20.0, 40.0])
    t.add_series("ab", [5.0, 8.0, 10.0])
    return t


def test_add_series_validates_length():
    t = make_table()
    with pytest.raises(ValueError):
        t.add_series("bad", [1.0])


def test_factor_series():
    t = make_table()
    s = t.factor_series("factor", "nab", "ab")
    assert s.values == [2.0, 2.5, 4.0]


def test_factor_series_handles_zero_denominator():
    t = Table("Z", "x", [1])
    t.add_series("a", [1.0])
    t.add_series("b", [0.0])
    s = t.factor_series("f", "a", "b")
    assert math.isnan(s.values[0])


def test_find_unknown_series():
    with pytest.raises(KeyError):
        make_table()._find("missing")


def test_render_contains_all_cells():
    t = make_table()
    t.factor_series("factor", "nab", "ab")
    text = t.render()
    assert "Demo" in text
    for token in ("nab", "ab", "factor", "40.00", "2.50"):
        assert token in text
    # header, separator and one row per x value
    assert len(text.splitlines()) == 4 + len(t.x_values)


def test_render_aligns_columns():
    text = make_table().render()
    rows = text.splitlines()[2:]
    widths = {len(r) for r in rows}
    assert len(widths) == 1


def test_x_formatting_integers_vs_floats():
    t = Table("T", "x", [1.0, 2.5])
    t.add_series("s", [0.0, 0.0])
    text = t.render()
    assert " 1 " in text or text.splitlines()[3].strip().startswith("1")
    assert "2.5" in text
