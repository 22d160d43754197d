"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import MpiBuild, quiet_cluster, run_program
from repro.analysis.invariants import ASSERT, InvariantMonitor
from repro.cluster.cluster import set_default_monitor_factory
from repro.sim.simulator import Simulator


@pytest.fixture(autouse=True)
def _protocol_invariants():
    """Run every scenario under the protocol-invariant monitor.

    Each Cluster built while this fixture is active gets an
    InvariantMonitor in assert mode, so all AB/nab integration scenarios
    also exercise the paper's Sec. IV descriptor/signal protocol and the
    Sec. V copy accounting (see repro.analysis.invariants).
    """
    set_default_monitor_factory(lambda: InvariantMonitor(mode=ASSERT))
    try:
        yield
    finally:
        set_default_monitor_factory(None)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def run_ranks(size, program, *, build=MpiBuild.DEFAULT, seed=0, config=None):
    """Run ``program`` on a quiet (noise-free, homogeneous) cluster."""
    cfg = config if config is not None else quiet_cluster(size, seed=seed)
    return run_program(cfg, program, build=build)


def expected_sum(size: int, elements: int) -> np.ndarray:
    """Sum over ranks of ``full(elements, rank + 1)``."""
    return np.full(elements, float(size * (size + 1) / 2))


def contribution(rank: int, elements: int) -> np.ndarray:
    return np.full(elements, float(rank + 1), dtype=np.float64)
