"""Bit-identity of ``mpi.<collective>`` and the schedule interpreter against
a committed reference.

``mpi.reduce/bcast/allreduce`` and
:func:`repro.core.interpreter.execute_schedule` both run the one host-side
step walker, so comparing them to each other would be new code against new
code.  The reference is ``golden/schedule_interpreter.json``: the
``mpi.<collective>`` side of every case, captured at the commit *before*
the hand-written recv → fold → send loops were replaced by the walker
(per-rank payload SHA-256, simulated finish time, full
``Simulator.counters()`` snapshot — events popped, driver ops, per-hop
network counters).  Both paths must reproduce it exactly, not "numerically
close".  The fixture is never regenerated from current code.

Every registered tree lowering is pinned here across three tree shapes,
whole message and segmented, on both builds where applicable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.scheduled import build_schedule
from repro.config import PipelineParams, quiet_cluster
from repro.core.interpreter import execute_schedule
from repro.mpich.operations import SUM
from repro.mpich.rank import MpiBuild
from repro.runtime.program import run_program

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "schedule_interpreter.json")
    .read_text(encoding="utf-8"))["cases"]

SIZE = 8
ELEMENTS = 1024  # 8 KiB payload -> 4 segments at 2048 B
SHAPES = ("binomial", "chain", "bine")

#: (lowering for whole, lowering for segmented, build)
COMBOS = [
    ("reduce.nab", "reduce.nab", MpiBuild.DEFAULT),
    ("reduce.ab", "reduce.ab", MpiBuild.AB),
    ("bcast.tree", "bcast.tree", MpiBuild.DEFAULT),
    ("allreduce.reduce_bcast", "allreduce.reduce_bcast", MpiBuild.DEFAULT),
    ("allreduce.ab", "allreduce.pipelined", MpiBuild.AB),
]


def make_config(shape: str, segmented: bool, size: int = SIZE):
    config = quiet_cluster(size, seed=7)
    config = config.with_mpi(dataclasses.replace(config.mpi,
                                                 tree_shape=shape))
    if segmented:
        config = config.with_pipeline(PipelineParams(
            segment_size_bytes=2048, max_inflight_segments=3))
    return config


def legacy_program(collective: str):
    def program(mpi):
        data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
        if collective == "reduce":
            result = yield from mpi.reduce(data, op=SUM, root=0)
        elif collective == "bcast":
            if mpi.rank == 0:
                result = yield from mpi.bcast(data, root=0)
            else:
                result = yield from mpi.bcast(None, root=0, count=ELEMENTS)
        else:
            result = yield from mpi.allreduce(data, op=SUM)
        return None if result is None else result.copy()
    return program


def scheduled_program(schedule):
    collective = schedule.collective

    def program(mpi):
        data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
        if collective == "bcast" and mpi.rank != 0:
            result = yield from execute_schedule(
                mpi.mpi, schedule, None, SUM, comm=mpi.mpi.comm_world,
                count=ELEMENTS)
        else:
            result = yield from execute_schedule(
                mpi.mpi, schedule, data, SUM, comm=mpi.mpi.comm_world)
        return None if result is None else result.copy()
    return program


def payload_digest(array):
    if array is None:
        return None
    array = np.ascontiguousarray(array)
    header = "%s|%s|" % (array.dtype.str, array.shape)
    return hashlib.sha256(header.encode() + array.tobytes()).hexdigest()


def snapshot(out):
    return {
        "finished_at": out.finished_at,
        "payload_sha256": [payload_digest(r) for r in out.results],
        "sim_counters": dict(out.sim_counters()),
    }


def test_golden_covers_exactly_the_parametrized_cases():
    assert len(GOLDEN) == len(COMBOS) * len(SHAPES) * 2


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("segmented", [False, True],
                         ids=["whole", "segmented"])
@pytest.mark.parametrize("whole_name,seg_name,build",
                         COMBOS, ids=[c[0] for c in COMBOS])
def test_interpreter_bit_identical_to_legacy(shape, segmented, whole_name,
                                             seg_name, build):
    config = make_config(shape, segmented)
    lowering = seg_name if segmented else whole_name
    schedule = build_schedule(config, lowering=lowering, elements=ELEMENTS)
    assert schedule.nseg == (4 if segmented else 0)
    golden = GOLDEN["%s-%s-%s" % (whole_name,
                                  "segmented" if segmented else "whole",
                                  shape)]
    # Same simulated universe as the pre-walker code: every event popped,
    # every driver op, every per-hop network counter, the same finish
    # instant and the same per-rank payloads, bit for bit.
    legacy = run_program(config, legacy_program(schedule.collective),
                         build=build)
    assert snapshot(legacy) == golden
    scheduled = run_program(config, scheduled_program(schedule), build=build)
    assert snapshot(scheduled) == golden


def test_interpreter_rejects_mismatched_segmentation():
    """A schedule lowered for a different segment plan than the config
    would execute must be refused, not silently diverge."""
    from repro.errors import ProcessFailed
    config = make_config("binomial", True)   # plans 4 segments
    whole = build_schedule(make_config("binomial", False),
                           lowering="reduce.ab", elements=ELEMENTS)

    def program(mpi):
        data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
        result = yield from execute_schedule(
            mpi.mpi, whole, data, SUM, comm=mpi.mpi.comm_world)
        return result

    with pytest.raises(ProcessFailed, match="nseg"):
        run_program(config, program, build=MpiBuild.AB)


def _family_calls_per_rank(size: int, monkeypatch) -> set:
    """How many ``ranks.family`` derivations one ``allreduce.pipelined``
    execution costs a rank, with ``size`` ranks: the distinct per-rank
    counts (the root derives once more than the rest)."""
    from collections import Counter
    from repro.topo import ranks
    config = make_config("binomial", True, size)
    schedule = build_schedule(config, lowering="allreduce.pipelined",
                              elements=ELEMENTS)
    per_rank: Counter = Counter()
    real = ranks.family

    def counted(shape, size, root, me):
        per_rank[me] += 1
        return real(shape, size, root, me)

    with monkeypatch.context() as patch:
        patch.setattr(ranks, "family", counted)
        out = run_program(config, scheduled_program(schedule),
                          build=MpiBuild.AB)
    assert all(r[0] == size * (size + 1) / 2 for r in out.results)
    assert sorted(per_rank) == list(range(size))
    return set(per_rank.values())


def test_pipelined_guard_costs_each_rank_its_own_steps_only(monkeypatch):
    """The interpreter proves *this rank's* steps against the configured
    tree; it used to re-lower all ``comm.size`` ranks inside every rank on
    every call (32 more family derivations per rank at 64 ranks than at
    32)."""
    assert (_family_calls_per_rank(32, monkeypatch)
            == _family_calls_per_rank(64, monkeypatch))
