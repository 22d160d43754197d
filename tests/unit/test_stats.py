"""Tests for the benchmark statistics helpers."""

import numpy as np
import pytest

from repro.bench.stats import summarize


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == 2.5
    assert s.minimum == 1.0 and s.maximum == 4.0
    assert s.median == 2.5
    assert s.std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))
    assert s.ci95 == pytest.approx(1.96 * s.std / 2.0)


def test_summarize_single_sample():
    s = summarize([7.0])
    assert (s.n, s.mean, s.std, s.ci95) == (1, 7.0, 0.0, 0.0)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_flattens():
    s = summarize(np.ones((3, 4)))
    assert s.n == 12 and s.mean == 1.0 and s.std == 0.0


def test_benchmarks_attach_summaries():
    from repro import MpiBuild, paper_cluster
    from repro.bench import cpu_util_benchmark, latency_benchmark

    r = cpu_util_benchmark(paper_cluster(4, seed=1), MpiBuild.AB,
                           elements=4, max_skew_us=200.0, iterations=12)
    assert r.summary is not None
    assert r.summary.n == 12
    assert r.summary.mean == pytest.approx(r.avg_util_us)

    lat = latency_benchmark(paper_cluster(4, seed=1), MpiBuild.DEFAULT,
                            elements=1, iterations=12)
    assert lat.summary.n == 12
    assert lat.summary.mean == pytest.approx(lat.avg_latency_us)
