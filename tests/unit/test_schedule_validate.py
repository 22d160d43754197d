"""The schedule validator's verdicts, messages and cost, and the JSON and
``lower()`` front doors.

``golden/schedule_defects.json`` was captured from the round-robin
validator at commit 9dd9f3b (``tests/schedule_defects.py`` prints it); the
worklist validator must reproduce every text byte for byte.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import inspect
import json
import pickle
import random
import time
from pathlib import Path

import numpy as np
import pytest

import schedule_oracle
from schedule_defects import DEFECTS, messages
from repro.schedule import lower
from repro.schedule.ir import (STEP_TYPES, BcastStep, RecvStep, Schedule,
                               ScheduleError, ScheduleValidationError,
                               SendStep, WaitStep)
from repro.schedule.lower import LOWERINGS, barrier_rank_steps
from repro.topo.trees import make_tree_shape

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "schedule_defects.json")
    .read_text(encoding="utf-8"))

BINOMIAL = make_tree_shape("binomial")


# ---------------------------------------------------------------------------
# (i) defect corpus == golden
# ---------------------------------------------------------------------------

def test_corpus_and_golden_name_the_same_cases():
    assert list(DEFECTS) == list(GOLDEN)
    assert None not in GOLDEN.values()


@pytest.mark.parametrize("case", list(GOLDEN))
def test_defect_message_is_byte_identical_to_golden(case):
    with pytest.raises(ScheduleValidationError) as err:
        DEFECTS[case].validate()
    assert str(err.value) == GOLDEN[case]


def test_oracle_still_says_what_the_golden_says():
    """The round-robin copy under tests/ is the differential oracle of the
    property suite; it must itself still be the validator the golden was
    captured from."""
    assert messages(schedule_oracle.validate) == GOLDEN


def test_corpus_covers_every_deadlock_shape_and_message_family():
    texts = list(GOLDEN.values())
    assert sum(t.startswith("deadlock:") for t in texts) >= 4
    for fragment in ("unknown collective", "nranks must be", "root ",
                     "nseg must be", "rank step lists", "no children",
                     "unknown step", "out of range in", "self-referential",
                     "segment id", "receive without a matching send",
                     "send without a matching receive",
                     "has no unconsumed receive", "blocked forever"):
        assert any(fragment in t for t in texts), fragment


# ---------------------------------------------------------------------------
# the receive rule: a receive directly followed by sends completes after them
# ---------------------------------------------------------------------------

def test_receive_then_send_exchange_is_clean():
    """The shape ``deadlock.two_rank_recv_before_send`` had before the
    rule: each rank posts, sends, then waits."""
    schedule = Schedule("reduce", "hand-built", 2, steps=[
        [RecvStep(1), SendStep(1)],
        [RecvStep(0), SendStep(0)]])
    assert schedule.validate() is schedule
    assert schedule_oracle.validate(schedule) is schedule


def test_dissemination_barrier_steps_validate():
    for n in [*range(1, 65), 4096]:
        steps = [barrier_rank_steps(me, n) for me in range(n)]
        # all ranks draw on one table of steps per size
        assert len({id(step) for rank in steps for step in rank}) <= 2 * n
        assert steps == [
            [step for k in range((n - 1).bit_length())
             for step in (RecvStep((me - 2 ** k) % n),
                          SendStep((me + 2 ** k) % n))]
            for me in range(n)], n
        schedule = Schedule("barrier", "barrier.dissemination", n,
                            steps=steps)
        assert schedule.validate() is schedule, n
        if n <= 64:
            assert schedule_oracle.validate(schedule) is schedule, n


# ---------------------------------------------------------------------------
# the validator accepted a schedule the executor does not run as written
# ---------------------------------------------------------------------------

def test_wait_listing_a_child_twice_is_rejected():
    """``reduce_neighbors`` de-duplicates children, so the AB route would
    post a one-child descriptor and the leaf's second send never lands."""
    schedule = Schedule("reduce", "hand-built", 3, steps=[
        [RecvStep(1)],
        [WaitStep((2, 2)), SendStep(0)],
        [SendStep(1), SendStep(1)]])
    with pytest.raises(ScheduleValidationError) as err:
        schedule.validate()
    assert str(err.value) == "rank 1: WaitStep lists child 2 twice"


# ---------------------------------------------------------------------------
# (iii) linear, not quadratic — ratios only, no absolute stopwatch threshold
# ---------------------------------------------------------------------------

def _validate_ms(schedule) -> float:
    """The best of 5 runs with the collector paused: a collection or a
    neighbour's burst only ever adds time, so the minimum is the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            start = time.perf_counter()
            schedule.validate()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return min(times) * 1e3


def _random_order(size):
    order = list(range(size))
    random.Random(size).shuffle(order)
    return order


def test_validate_scales_linearly_on_a_random_order_chain():
    """A PRA schedule is a chain in arrival order: the round-robin check
    needed O(ranks) sweeps for it (4x the ranks cost 16x), the worklist
    one visit per step (4x)."""
    pra = {n: lower("allreduce.pap_prereduced", BINOMIAL, n,
                    order=_random_order(n)) for n in (1024, 4096)}
    sra = lower("allreduce.pap_sorted", BINOMIAL, 4096,
                order=_random_order(4096))
    narrow, wide = _validate_ms(pra[1024]), _validate_ms(pra[4096])
    sorted_tree = _validate_ms(sra)
    assert wide < 8 * narrow, (narrow, wide)
    assert wide < 3 * sorted_tree, (wide, sorted_tree)


def test_one_wide_wait_is_linear_in_its_children():
    """Every child of one big WaitStep arrives while the waiter is parked:
    each wake-up resumes after the children already taken instead of
    re-scanning them."""
    def flat(n):
        return Schedule("reduce", "hand-built", n, steps=(
            [[WaitStep(tuple(range(1, n)))]]
            + [[SendStep(0)] for _ in range(1, n)]))
    narrow, wide = _validate_ms(flat(1000)), _validate_ms(flat(4000))
    assert wide < 8 * narrow, (narrow, wide)


# ---------------------------------------------------------------------------
# step classes: field tables built once, canonical JSON, interned values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", list(STEP_TYPES.values()),
                         ids=list(STEP_TYPES))
def test_step_tables_agree_with_the_dataclass_fields(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls._fields == names and names[-1] == "seg"
    # the generated constructor takes each field positionally or by name,
    # with the dataclass's default
    empty = inspect.Parameter.empty
    assert [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)]
    args = [(3,) if n == "children" else "recv" if n == "direction" else 3
            for n in names[:-1]]
    step = cls(*args, 1)
    assert list(step.to_dict()) == ["step", *names]
    assert step.with_seg(0) == dataclasses.replace(step, seg=0)
    assert type(step.with_seg(0)) is cls
    assert not hasattr(step, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.seg = 2
    twins = [cls(*args, 1), cls(**dict(zip(names, [*args, 1]))),
             cls(*args, 0).with_seg(1), copy.copy(step), copy.deepcopy(step),
             pickle.loads(pickle.dumps(step))]
    assert twins == [step] * len(twins)
    assert all(twin is step for twin in twins)


def test_json_round_trip_shares_every_interned_step():
    for name in sorted(LOWERINGS):
        schedule = lower(name, BINOMIAL, 16, nseg=2 if "pipelined" in name
                         else 0)
        back = Schedule.from_json(schedule.to_json())
        assert back == schedule, name
        for mine, theirs in zip(schedule.steps, back.steps):
            for a, b in zip(mine, theirs):
                assert a is b, (name, a)


def test_inexact_values_and_subclasses_never_alias_an_interned_step():
    exact = SendStep(1)
    for peer in (True, 1.0, np.int64(1)):
        private = SendStep(peer)
        assert private is not exact and private.peer is peer
        assert SendStep(peer) is not private
    assert type(SendStep(True, 7).peer) is bool
    assert type(SendStep(1, 7).peer) is int     # built after, never aliased

    assert WaitStep([1, 2]) is WaitStep((1, 2))
    exact = WaitStep((1,), 1)
    for children, seg in (((True,), 1), ((np.int64(1),), 1), ((1,), True)):
        private = WaitStep(children, seg)
        assert private is not exact and private.seg is seg
        assert private.children[0] is children[0]
        assert WaitStep(children, seg) is not private
    assert type(WaitStep((True,), 7).children[0]) is bool
    assert type(WaitStep((1,), 7).children[0]) is int   # never aliased

    class Tagged(SendStep):
        pass

    assert type(Tagged(1)) is Tagged and Tagged(1) is Tagged(1)
    for bad in ("up", 1):   # interned and private paths check alike
        with pytest.raises(ScheduleError, match="direction must be"):
            BcastStep(1, bad)


def test_compile_path_never_reflects_per_step(monkeypatch):
    calls = []
    real = dataclasses.fields
    monkeypatch.setattr(dataclasses, "fields",
                        lambda obj: calls.append(obj) or real(obj))
    schedule = lower("allreduce.ab", BINOMIAL, 16).validate()
    assert Schedule.from_json(schedule.to_json()) == schedule
    assert [s.with_seg(0) for s in schedule.steps[0]]
    assert calls == []


# ---------------------------------------------------------------------------
# (v) the JSON front door: one ScheduleError line, naming the place
# ---------------------------------------------------------------------------

def _damaged(edit):
    d = copy.deepcopy(VALID)
    edit(d)
    return json.dumps(d)


#: 4 ranks, binomial allreduce.ab: ranks[0] opens recv/fold, ranks[2] holds a
#: wait, and bcast steps close every rank.
VALID = lower("allreduce.ab", BINOMIAL, 4).to_dict()


_DROP = object()


def _set(path, value):
    """An edit: put ``value`` at ``path`` of the object (``_DROP`` deletes)."""
    def edit(d):
        *parents, last = path
        for key in parents:
            d = d[key]
        if value is _DROP:
            del d[last]
        else:
            d[last] = value
    return edit


def _drop(path):
    return _set(path, _DROP)


WAIT = next((r, i) for r, rank in enumerate(VALID["ranks"])
            for i, s in enumerate(rank) if s["step"] == "wait")
BCAST = next((r, i) for r, rank in enumerate(VALID["ranks"])
             for i, s in enumerate(rank) if s["step"] == "bcast")

JSON_FUZZ = [
    # at 9dd9f3b: raw TypeError
    ("step without peer", _drop(("ranks", 0, 0, "peer")),
     "ranks[0][0]: recv step has no 'peer'"),
    ("ranks is an int", _set(("ranks",), 5), "ranks must be a list, got 5"),
    ("meta entry is an int", _set(("meta",), [1]),
     "meta[0] must be a [key, value] pair of strings, got 1"),
    ("wait.children is an int", _set(("ranks", *WAIT, "children"), 3),
     "ranks[%d][%d]: wait.children must be a list of ints, got 3" % WAIT),
    # at 9dd9f3b: raw AttributeError
    ("a step is a list", _set(("ranks", 1, 0), ["send", 0]),
     "ranks[1][0]: a step must be a JSON object, got ['send', 0]"),
    ("a rank is an object", _set(("ranks", 1), {"send": 0}),
     "ranks[1] must be a list of steps, got {'send': 0}"),
    # at 9dd9f3b: raw KeyError / ValueError
    ("no collective", _drop(("collective",)), "schedule has no 'collective'"),
    ("nranks is a word", _set(("nranks",), "x"),
     "nranks must be an int, got 'x'"),
    # at 9dd9f3b: survived until validate() died comparing int with str
    ("peer is a numeral string", _set(("ranks", 3, 0, "peer"), "1"),
     "ranks[3][0]: send.peer must be an int, got '1'"),
    # at 9dd9f3b: accepted
    ("peer is a float", _set(("ranks", 3, 0, "peer"), 1.0),
     "ranks[3][0]: send.peer must be an int, got 1.0"),
    ("seg is a float", _set(("ranks", 0, 1, "seg"), -1.0),
     "ranks[0][1]: fold.seg must be an int, got -1.0"),
    ("peer is a bool", _set(("ranks", 3, 0, "peer"), True),
     "ranks[3][0]: send.peer must be an int, got True"),
    ("a child is a bool", _set(("ranks", *WAIT, "children"), [True]),
     "ranks[%d][%d]: wait.children must be a list of ints, got [True]"
     % WAIT),
    ("a child is a bool after an int",
     _set(("ranks", *WAIT, "children"), [1, True]),
     "ranks[%d][%d]: wait.children must be a list of ints, got [1, True]"
     % WAIT),
    ("a child is a float", _set(("ranks", *WAIT, "children"), [1, 1.0]),
     "ranks[%d][%d]: wait.children must be a list of ints, got [1, 1.0]"
     % WAIT),
    ("unknown step key", _set(("ranks", 3, 0, "pear"), 1),
     "ranks[3][0]: send step has unknown key(s) 'pear'"),
    ("unknown top-level key", _set(("rank",), []),
     "schedule has unknown key(s) 'rank'"),
    ("nranks is a float", _set(("nranks",), 4.0),
     "nranks must be an int, got 4.0"),
    ("direction is an int", _set(("ranks", *BCAST, "direction"), 1),
     "ranks[%d][%d]: bcast.direction must be a string, got 1" % BCAST),
    # already ScheduleError, now with the place
    ("direction is neither", _set(("ranks", *BCAST, "direction"), "up"),
     "ranks[%d][%d]: BcastStep direction must be 'send' or 'recv', got 'up'"
     % BCAST),
    # an unknown key outranks a value the step's constructor refuses
    ("unknown key beside a bad direction",
     lambda d: d["ranks"][BCAST[0]][BCAST[1]].update(direction="up", x=1),
     "ranks[%d][%d]: bcast step has unknown key(s) 'x'" % BCAST),
    ("unknown step tag", _set(("ranks", 2, 0, "step"), "scan"),
     "ranks[2][0]: unknown step tag 'scan'"),
    ("unhashable step tag", _set(("ranks", 2, 0, "step"), ["send"]),
     "ranks[2][0]: unknown step tag ['send']"),
]


def test_the_undamaged_object_loads_and_validates():
    assert Schedule.from_json(json.dumps(VALID)).validate().to_dict() == VALID


@pytest.mark.parametrize("edit,message", [c[1:] for c in JSON_FUZZ],
                         ids=[c[0] for c in JSON_FUZZ])
def test_from_json_answers_damage_in_one_line(edit, message):
    with pytest.raises(ScheduleError) as err:
        Schedule.from_json(_damaged(edit))
    assert str(err.value) == message
    assert "\n" not in message


@pytest.mark.parametrize("text,message", [
    (json.dumps(VALID)[:40], "schedule is not valid JSON: "),
    ("", "schedule is not valid JSON: "),
    (json.dumps([VALID]), "a schedule must be a JSON object, got ["),
    ("null", "a schedule must be a JSON object, got None"),
], ids=["truncated", "empty", "a list", "null"])
def test_from_json_refuses_text_that_is_not_a_schedule_object(text, message):
    with pytest.raises(ScheduleError) as err:
        Schedule.from_json(text)
    assert str(err.value).startswith(message)


# ---------------------------------------------------------------------------
# the lower() front door
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kwargs,message", [
    ("reduce.nab", {"order": (0, 1, 2, 3)},
     "lowering 'reduce.nab' takes no order= argument (it takes: root, nseg)"),
    ("reduce.nab", {"nsegs": 2},
     "lowering 'reduce.nab' takes no nsegs= argument (it takes: root, nseg)"),
    ("allreduce.pap_sorted", {"ordr": (0, 1, 2, 3)},
     "lowering 'allreduce.pap_sorted' takes no ordr= argument "
     "(it takes: root, nseg, order)"),
    ("allreduce.pap_sorted", {"order": (0, 1, 2, "x")},
     "order must be a sequence of integer ranks, got (0, 1, 2, 'x')"),
    ("allreduce.pap_prereduced", {"order": 5},
     "order must be a sequence of integer ranks, got 5"),
    ("allreduce.pap_prereduced", {"order": (0, 1, 2, 2)},
     "order must be a permutation of 0..3, got (0, 1, 2, 2)"),
], ids=["order on a tree lowering", "misspelt nseg", "misspelt order",
        "order holds a word", "order is an int", "order repeats a rank"])
def test_lower_refuses_bad_arguments_in_one_line(name, kwargs, message):
    with pytest.raises(ScheduleError) as err:
        lower(name, BINOMIAL, 4, **kwargs)
    assert str(err.value) == message
