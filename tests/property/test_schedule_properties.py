"""Property tests for the schedule IR (repro.schedule).

The IR's whole value is that a Schedule is *checkable data*: JSON
round-trips must be lossless, every registered lowering must produce a
schedule the validator accepts at any (shape, size, root, nseg), and the
validator must reject the mutations that correspond to real protocol
bugs — a dropped send (unmatched recv), a reordered fold (operand not
yet received), a dangling wait (children that never send).  Hypothesis
drives all three over the full lowering registry.

The last test is a differential: *arbitrary* step lists (not only what the
lowerings emit), mutated, must get the same verdict and the same message
from ``Schedule.validate`` as from the round-robin validator it replaced,
kept verbatim in ``tests/schedule_oracle.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import schedule_oracle
from repro.schedule import (LOWERINGS, BcastStep, FoldStep, RecvStep,
                            Schedule, ScheduleValidationError, SendStep,
                            WaitStep, lower)
from repro.topo.trees import make_tree_shape

SHAPES = (("binomial", 2), ("knomial", 4), ("chain", 2), ("bine", 2))

#: Segmented lowerings need nseg >= 2; allreduce.pipelined *requires* it.
NSEGS = (0, 2, 4)

lowering_names = st.sampled_from(sorted(LOWERINGS))
shape_params = st.sampled_from(SHAPES)
sizes = st.integers(min_value=1, max_value=64)


def make(name, shape_name, radix, size, root, nseg):
    shape = make_tree_shape(shape_name, radix=radix)
    if name == "allreduce.pipelined" and nseg == 0:
        nseg = 2
    return lower(name, shape, size, root=root, nseg=nseg)


@given(name=lowering_names, shape=shape_params, size=sizes,
       nseg=st.sampled_from(NSEGS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_lowering_validates_clean(name, shape, size, nseg, data):
    root = data.draw(st.integers(min_value=0, max_value=size - 1))
    schedule = make(name, shape[0], shape[1], size, root, nseg)
    assert schedule.validate() is schedule


@given(name=lowering_names, shape=shape_params, size=sizes,
       nseg=st.sampled_from(NSEGS), data=st.data())
@settings(max_examples=200, deadline=None)
def test_json_round_trip_is_lossless(name, shape, size, nseg, data):
    root = data.draw(st.integers(min_value=0, max_value=size - 1))
    schedule = make(name, shape[0], shape[1], size, root, nseg)
    again = Schedule.from_json(schedule.to_json())
    assert again == schedule
    # And a second trip is byte-stable (canonical serialization).
    assert again.to_json() == schedule.to_json()


def _ranks_with(schedule, step_type):
    return [r for r, steps in enumerate(schedule.steps)
            if any(isinstance(s, step_type) for s in steps)]


def _mutate_rank(schedule, rank, new_steps):
    steps = list(schedule.steps)
    steps[rank] = tuple(new_steps)
    return dataclasses.replace(schedule, steps=tuple(steps))


@given(name=lowering_names, shape=shape_params,
       size=st.integers(min_value=2, max_value=32),
       nseg=st.sampled_from(NSEGS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_validator_rejects_dropped_send(name, shape, size, nseg, data):
    schedule = make(name, shape[0], shape[1], size, 0, nseg)
    senders = _ranks_with(schedule, SendStep)
    if not senders:
        return  # size-2 bcast etc.: nothing to drop on this axis
    rank = data.draw(st.sampled_from(senders))
    steps = list(schedule.steps[rank])
    idx = next(i for i, s in enumerate(steps) if isinstance(s, SendStep))
    del steps[idx]
    broken = _mutate_rank(schedule, rank, steps)
    with pytest.raises(ScheduleValidationError):
        broken.validate()


@given(name=st.sampled_from([n for n in sorted(LOWERINGS)
                             if n.startswith(("reduce", "allreduce"))]),
       shape=shape_params, size=st.integers(min_value=3, max_value=32),
       nseg=st.sampled_from(NSEGS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_validator_rejects_reordered_fold(name, shape, size, nseg, data):
    """Moving a FoldStep ahead of its matching RecvStep folds an operand
    that has not arrived — the per-rank operand scan must catch it."""
    schedule = make(name, shape[0], shape[1], size, 0, nseg)
    candidates = []
    for rank, steps in enumerate(schedule.steps):
        for i, s in enumerate(steps):
            if (isinstance(s, FoldStep) and i > 0
                    and isinstance(steps[i - 1], RecvStep)
                    and steps[i - 1].peer == s.child
                    and steps[i - 1].seg == s.seg):
                candidates.append((rank, i))
    if not candidates:
        return  # reduce.ab leaves fold to the NIC (WaitStep)
    rank, i = data.draw(st.sampled_from(candidates))
    steps = list(schedule.steps[rank])
    steps[i - 1], steps[i] = steps[i], steps[i - 1]
    broken = _mutate_rank(schedule, rank, steps)
    with pytest.raises(ScheduleValidationError):
        broken.validate()


@given(shape=shape_params, size=st.integers(min_value=2, max_value=32),
       nseg=st.sampled_from(NSEGS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_validator_rejects_dangling_wait(shape, size, nseg, data):
    """A WaitStep naming a child that never sends can never complete."""
    schedule = make("reduce.ab", shape[0], shape[1], size, 0, nseg)
    waiters = _ranks_with(schedule, WaitStep)
    if not waiters:
        return  # flat tree: root folds, everyone else is a leaf
    rank = data.draw(st.sampled_from(waiters))
    steps = list(schedule.steps[rank])
    idx = next(i for i, s in enumerate(steps) if isinstance(s, WaitStep))
    wait = steps[idx]
    # Retarget the wait at a rank that is NOT one of its children (the
    # extra child never sends to us, so the wait dangles forever).
    stranger = data.draw(st.sampled_from(
        [r for r in range(size) if r != rank and r not in wait.children]
        or [rank]))
    if stranger == rank:
        return
    steps[idx] = dataclasses.replace(
        wait, children=wait.children + (stranger,))
    broken = _mutate_rank(schedule, rank, steps)
    with pytest.raises(ScheduleValidationError):
        broken.validate()


# ---------------------------------------------------------------------------
# differential: worklist validator == round-robin oracle, verdict and text
# ---------------------------------------------------------------------------

def _consume(rng, steps, sources, seg):
    """Take one contribution from each of ``sources``: one NIC wait, or
    host receives with their folds right behind, deferred, or missing."""
    if sources and rng.random() < 0.35:
        steps.append(WaitStep(tuple(sources), seg))
        return
    deferred = []
    for src in sources:
        steps.append(RecvStep(src, seg))
        fold = rng.random()
        if fold < 0.6:
            steps.append(FoldStep(src, seg))
        elif fold < 0.9:
            deferred.append(FoldStep(src, seg))
    steps.extend(deferred)


@st.composite
def arbitrary_schedules(draw):
    """A deadlock-free schedule over a random DAG: every message's send is
    appended (to its source) before its receive (to its destination), so
    the order of construction is itself a run that completes."""
    rng = draw(st.randoms(use_true_random=False))
    nranks = draw(st.integers(min_value=2, max_value=24))
    nseg = draw(st.integers(min_value=0, max_value=4))
    collective = draw(st.sampled_from(("reduce", "bcast", "allreduce")))
    order = list(range(nranks))
    rng.shuffle(order)                      # order[0] is the root
    ranks = [[] for _ in range(nranks)]
    for seg in (range(nseg) if nseg else (-1,)):
        if collective != "bcast":
            inbox = {r: [] for r in order}
            for pos in range(nranks - 1, 0, -1):
                me = order[pos]
                _consume(rng, ranks[me], inbox[me], seg)
                # one parent is a tree; a second makes it a DAG
                fanout = 2 if pos > 1 and rng.random() < 0.2 else 1
                for parent in rng.sample(order[:pos], fanout):
                    ranks[me].append(SendStep(parent, seg))
                    inbox[parent].append(me)
            _consume(rng, ranks[order[0]], inbox[order[0]], seg)
        if collective != "reduce":
            for pos in range(1, nranks):
                parent, child = rng.choice(order[:pos]), order[pos]
                ranks[parent].append(BcastStep(child, "send", seg))
                ranks[child].append(BcastStep(parent, "recv", seg))
    return rng, Schedule(collective, "arbitrary", nranks, order[0], nseg,
                         steps=ranks)


def _retarget(rng, step, nranks):
    """Point one operand of ``step`` somewhere else — possibly at its own
    rank or one past the last rank.  A WaitStep never gains a child it
    already lists: that is the one rule the oracle does not have."""
    if isinstance(step, WaitStep):
        fresh = [r for r in range(nranks + 1) if r not in step.children]
        children = list(step.children)
        children[rng.randrange(len(children))] = rng.choice(fresh)
        return dataclasses.replace(step, children=tuple(children))
    name = "child" if isinstance(step, FoldStep) else "peer"
    return dataclasses.replace(step, **{name: rng.randrange(nranks + 1)})


def _blocks(step):
    return (isinstance(step, (RecvStep, WaitStep))
            or isinstance(step, BcastStep) and step.direction == "recv")


def _takes(step, send, src):
    """Whether ``step`` takes or folds what ``send``, on rank ``src``,
    delivers."""
    if step.seg != send.seg:
        return False
    if isinstance(send, BcastStep):
        return (isinstance(step, BcastStep) and step.direction == "recv"
                and step.peer == src)
    if isinstance(step, WaitStep):
        return src in step.children
    return (isinstance(step, RecvStep) and step.peer == src
            or isinstance(step, FoldStep) and step.child == src)


def _reseg_message(rng, schedule):
    """Move one send, and every step of its peer that takes or folds it,
    to one segment outside the valid set: the message still matches and
    its fold keeps its operand, so only the segment check can say why."""
    sends = [(r, i) for r, steps in enumerate(schedule.steps)
             for i, step in enumerate(steps)
             if isinstance(step, SendStep) or isinstance(step, BcastStep)
             and step.direction == "send"]
    if not sends:
        return schedule
    src, i = rng.choice(sends)
    send = schedule.steps[src][i]
    bad = rng.choice([schedule.nseg, -2] if schedule.nseg else [0, -2])
    steps = [list(rank) for rank in schedule.steps]
    steps[src][i] = send.with_seg(bad)
    if 0 <= send.peer < schedule.nranks:
        steps[send.peer] = [
            step.with_seg(bad) if _takes(step, send, src) else step
            for step in steps[send.peer]]
    return dataclasses.replace(schedule, steps=tuple(map(tuple, steps)))


def _mutate(rng, schedule):
    """Drop, duplicate, swap adjacent, retarget or move to another segment
    (maybe one out of range) one step of one rank, or move a whole message
    to a segment out of range.  Half the swaps go for a send with a
    blocking step right behind it — hoisting the block over the send is
    what makes a cycle, and the deadlock branch is the one under test."""
    busy = [r for r, steps in enumerate(schedule.steps) if steps]
    if not busy:
        return schedule
    rank = rng.choice(busy)
    steps = list(schedule.steps[rank])
    i = rng.randrange(len(steps))
    kind = rng.choice(("drop", "duplicate", "swap", "swap", "retarget",
                       "reseg", "reseg_message"))
    if kind == "reseg_message":
        return _reseg_message(rng, schedule)
    if kind == "drop":
        del steps[i]
    elif kind == "duplicate":
        steps.insert(i, steps[i])
    elif kind == "swap" and len(steps) > 1:
        hoists = [k for k in range(len(steps) - 1)
                  if not _blocks(steps[k]) and _blocks(steps[k + 1])]
        i = (rng.choice(hoists) if hoists and rng.random() < 0.5
             else min(i, len(steps) - 2))
        steps[i], steps[i + 1] = steps[i + 1], steps[i]
    elif kind == "reseg":
        steps[i] = steps[i].with_seg(rng.choice(
            [seg for seg in range(-1, schedule.nseg + 1)
             if seg != steps[i].seg]))
    else:
        steps[i] = _retarget(rng, steps[i], schedule.nranks)
    return _mutate_rank(schedule, rank, steps)


def _verdict(validate, schedule):
    try:
        validate(schedule)
    except ScheduleValidationError as exc:
        return str(exc)
    return None


@given(drawn=arbitrary_schedules(),
       mutations=st.integers(min_value=0, max_value=2))
@settings(max_examples=400, deadline=None)
def test_worklist_validator_agrees_with_round_robin_oracle(drawn, mutations):
    rng, schedule = drawn
    assert _verdict(Schedule.validate, schedule) is None
    for _ in range(mutations):
        schedule = _mutate(rng, schedule)
    assert (_verdict(Schedule.validate, schedule)
            == _verdict(schedule_oracle.validate, schedule))
