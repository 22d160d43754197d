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
    config = dataclasses.replace(config, mpi=dataclasses.replace(
        config.mpi, tree_shape=shape))
    if segmented:
        config = dataclasses.replace(config, pipeline=PipelineParams(
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
                mpi, schedule, None, SUM, comm=mpi.comm_world,
                count=ELEMENTS)
        else:
            result = yield from execute_schedule(
                mpi, schedule, data, SUM, comm=mpi.comm_world)
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
            mpi, whole, data, SUM, comm=mpi.comm_world)
        return result

    with pytest.raises(ProcessFailed, match="nseg"):
        run_program(config, program, build=MpiBuild.AB)


@pytest.mark.parametrize("via", ["lowered", "reshape_tree"])
def test_reshaped_pipelined_allreduce_follows_its_schedule(via):
    """A chain ``allreduce.pipelined`` under a *binomial* config — lowered
    directly, or rewritten by the ``reshape_tree`` pass — executes: the AB
    broadcast forwards where the steps point, not along the configured
    tree (it used to be refused: "cannot follow a reshaped schedule")."""
    from repro.schedule import apply_passes, lower
    from repro.topo import make_tree_shape
    config = make_config("binomial", True)
    if via == "lowered":
        schedule = lower("allreduce.pipelined", make_tree_shape("chain"),
                         SIZE, nseg=4)
    else:
        schedule = apply_passes(
            build_schedule(config, lowering="allreduce.pipelined",
                           elements=ELEMENTS),
            [("reshape_tree", {"shape": "chain"})])
    schedule.validate()

    def program(mpi):
        data = np.arange(ELEMENTS, dtype=np.float64) * (mpi.rank + 1)
        result = yield from execute_schedule(mpi, schedule, data, SUM)
        return result

    # run_program builds the cluster under the suite's ASSERT-mode
    # invariant monitor (conftest): a protocol break would raise.
    out = run_program(config, program, build=MpiBuild.AB)
    assert out.cluster.monitor.checks > 0 and out.cluster.monitor.ok
    expected = np.add.reduce([np.arange(ELEMENTS, dtype=np.float64) * (r + 1)
                              for r in range(SIZE)])
    for result in out.results:
        assert np.array_equal(result, expected)
    forwards = [ctx.ab_engine.bcast.stats.forwards
                for ctx in out.contexts]
    assert forwards == [0] + [4] * (SIZE - 2) + [0]   # one chain child each


def _family_calls(config, program, build, monkeypatch):
    """``ranks.family`` derivations per rank while ``program`` runs, and
    the run's output."""
    from collections import Counter
    from repro.topo import ranks
    per_rank: Counter = Counter()
    real = ranks.family

    def counted(shape, size, root, me):
        per_rank[me] += 1
        return real(shape, size, root, me)

    with monkeypatch.context() as patch:
        patch.setattr(ranks, "family", counted)
        out = run_program(config, program, build=build)
    return per_rank, out


def test_pipelined_guard_costs_each_rank_its_own_steps_only(monkeypatch):
    """Executing a schedule reads ``schedule.steps[me]`` and nothing else:
    no rank derives the tree, at any width.  (The interpreter used to
    re-lower all ``comm.size`` ranks inside every rank on every call, then
    its own rank's steps five times over.)"""
    for size in (32, 64):
        config = make_config("binomial", True, size)
        schedule = build_schedule(config, lowering="allreduce.pipelined",
                                  elements=ELEMENTS)
        per_rank, out = _family_calls(config, scheduled_program(schedule),
                                      MpiBuild.AB, monkeypatch)
        assert all(r[0] == size * (size + 1) / 2 for r in out.results)
        assert not per_rank


#: Every registered lowering, whole and — where the config can execute
#: it — segmented: (lowering, segmented, build).
DERIVATION_CASES = (
    [(whole, False, build) for whole, _, build in COMBOS]
    + [(seg, True, build) for _, seg, build in COMBOS]
    + [("allreduce.pap_sorted", False, MpiBuild.DEFAULT),
       ("allreduce.pap_prereduced", False, MpiBuild.DEFAULT)])


def test_derivation_cases_cover_every_registered_lowering():
    from repro.schedule import LOWERINGS
    assert {name for name, _, _ in DERIVATION_CASES} == set(LOWERINGS)


@pytest.mark.parametrize(
    "lowering,segmented,build", DERIVATION_CASES,
    ids=["%s-%s" % (name, "segmented" if seg else "whole")
         for name, seg, _ in DERIVATION_CASES])
def test_execute_schedule_never_derives_the_tree(lowering, segmented, build,
                                                 monkeypatch):
    config = make_config("chain", segmented)
    schedule = build_schedule(config, lowering=lowering, elements=ELEMENTS)
    per_rank, _ = _family_calls(config, scheduled_program(schedule), build,
                                monkeypatch)
    assert not per_rank


def test_mpi_allreduce_derives_the_tree_once_per_rank(monkeypatch):
    """The AB pipelined ``mpi.allreduce`` derives its rank's steps once and
    both legs follow them (it used to derive five times: the reduce, the
    root's children, the broadcast's forwarders twice, the guard)."""
    config = make_config("binomial", True)
    per_rank, out = _family_calls(config, legacy_program("allreduce"),
                                  MpiBuild.AB, monkeypatch)
    assert out.contexts[0].ab_engine.pipeline.stats.pipelined_allreduces == 1
    assert per_rank == {me: 1 for me in range(SIZE)}


# ---------------------------------------------------------------------------
# every refusal (ROADMAP 3d): one line, naming the rank and the lowering
# ---------------------------------------------------------------------------

def _lowered(name, *, size=SIZE, nseg=0, shape="binomial"):
    from repro.schedule import lower
    from repro.topo import make_tree_shape
    return lower(name, make_tree_shape(shape), size, nseg=nseg)


def _armed_healing(config):
    """Tree healing armed, and a crash that never happens."""
    from repro.config import FaultParams
    return dataclasses.replace(config, faults=FaultParams(
        crash_rank=5, crash_at_us=1e12, tree_heal=True,
        descriptor_timeout_us=300, timeout_retries=2))


def _hand_built(collective, lowering, steps):
    from repro.schedule import Schedule
    return Schedule(collective, lowering, len(steps), steps=steps)


def _refusal_cases():
    from repro.schedule import SendStep, WaitStep
    whole, segmented = (make_config("binomial", s) for s in (False, True))
    # ("raise site[/variant]", config, build, schedule, elements, the rank
    # refused first, why)
    return [
        ("communicator-size", whole, MpiBuild.DEFAULT,
         _lowered("reduce.nab", size=4), ELEMENTS, 0,
         "it is for 4 ranks but the communicator has 8"),
        ("unknown-collective", whole, MpiBuild.DEFAULT,
         _hand_built("scan", "hand.built", ((),) * SIZE), ELEMENTS, 0,
         "no interpreter for collective 'scan'"),
        ("needs-ab-build/default-build", whole, MpiBuild.DEFAULT,
         _lowered("reduce.ab"), ELEMENTS, 0, "it needs an AB build"),
        ("needs-ab-build/disarmed-pipeline", whole, MpiBuild.AB,
         _lowered("allreduce.pipelined", nseg=4), ELEMENTS, 0,
         "it needs an AB build with an armed pipeline"),
        ("rendezvous-sized-ab", whole, MpiBuild.AB,
         _lowered("reduce.ab"), 4096, 0,
         "a rendezvous-sized payload (32768 bytes) cannot take the AB "
         "route; lower with reduce.nab instead"),
        ("non-root-keeps-its-result", whole, MpiBuild.AB,
         _hand_built("reduce", "reduce.ab", ((),) * SIZE), ELEMENTS, 1,
         "its steps send the partial result to nobody (only the root may "
         "keep it)"),
        ("sequential-under-pipelining-config", segmented, MpiBuild.AB,
         _lowered("allreduce.ab", nseg=4), ELEMENTS, 0,
         "the config pipelines this allreduce; lower with "
         "allreduce.pipelined instead"),
        ("segment-plan-mismatch", segmented, MpiBuild.DEFAULT,
         _lowered("reduce.nab"), ELEMENTS, 0,
         "its steps span nseg=0 but the config plans 4 segment(s) for 8192 "
         "bytes — align PipelineParams with the schedule"),
        ("nic-step-on-the-host", whole, MpiBuild.DEFAULT,
         _hand_built("reduce", "hand.built",
                     ((WaitStep((1,)),), (SendStep(0),)) + ((),) * 6),
         ELEMENTS, 0,
         "WaitStep(children=(1,), seg=-1) cannot be walked on the host"),
        ("steps-leave-the-healing-tree", _armed_healing(whole), MpiBuild.AB,
         _lowered("reduce.ab", shape="chain"), ELEMENTS, 0,
         "tree healing re-routes along the configured binomial tree, which "
         "its steps do not follow"),
    ]


REFUSALS = _refusal_cases()


def test_refusal_cases_cover_every_raise_site():
    """One case per ``raise ScheduleExecutionError`` in ``src/``, plus the
    interpreter's own re-raise that names rank and lowering."""
    import re
    src = Path(__file__).parents[2] / "src" / "repro"
    sites = sum(len(re.findall(r"raise ScheduleExecutionError\b",
                               path.read_text(encoding="utf-8")))
                for path in src.rglob("*.py"))
    assert sites == len({case[0].split("/")[0] for case in REFUSALS}) + 1
    assert sites <= 10


@pytest.mark.parametrize("config,build,schedule,elements,rank,why",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_every_refusal_is_one_line_naming_rank_and_lowering(
        config, build, schedule, elements, rank, why):
    from repro.core.interpreter import ScheduleExecutionError
    from repro.errors import ProcessFailed

    def program(mpi):
        data = np.ones(elements)
        result = yield from execute_schedule(mpi, schedule, data, SUM)
        return result

    with pytest.raises(ProcessFailed) as failure:
        run_program(config, program, build=build)
    error = failure.value.__cause__
    assert type(error) is ScheduleExecutionError
    assert str(error) == ("rank %d cannot execute this %s schedule: %s"
                          % (rank, schedule.lowering, why))
    assert "\n" not in str(error)


def test_armed_healing_executes_steps_that_follow_the_config_tree():
    """The other half of the steps-leave-the-healing-tree refusal: a
    schedule lowered over the configured shape runs under armed healing,
    bit-identical to the same run with the fault block disarmed."""
    config = make_config("binomial", False)
    program = scheduled_program(_lowered("reduce.ab"))
    healthy = run_program(config, program, build=MpiBuild.AB)
    armed = run_program(_armed_healing(config), program, build=MpiBuild.AB)
    assert armed.results[0][0] == SIZE * (SIZE + 1) / 2
    assert armed.results[0].tobytes() == healthy.results[0].tobytes()
