"""The schedule JSON round trip's two short cuts answer as the long ways do.

``Schedule.to_json()`` joins the JSON text each interned step keeps; for
any schedule it must be ``json.dumps(schedule.to_dict())`` byte for byte,
whatever mix of interned, private and subclassed steps it holds.
``Schedule.from_json`` answers an exactly shaped step object with one
lookup in its class's intern table; for any JSON value in a step position
it must return the step the checked walk (``step_from_dict``) returns, or
raise the ``ScheduleError`` text that walk's refusal gives.
"""

from __future__ import annotations

import copy
import json

from hypothesis import example, given, settings, strategies as st

from repro.config import RecordError
from repro.schedule.ir import (STEP_TYPES, BcastStep, FoldStep, RecvStep,
                               Schedule, ScheduleError, SendStep, WaitStep,
                               step_from_dict)


class MarkedSend(SendStep):
    """A subclass: interned in its own table, written as a send."""

    __slots__ = ()


ints = st.integers(-2, 5)
texts = st.text(max_size=4)

steps = st.one_of(
    st.builds(SendStep, ints, ints),
    st.builds(RecvStep, ints, ints),
    st.builds(FoldStep, ints, ints),
    st.builds(BcastStep, ints, st.sampled_from(("send", "recv")), ints),
    st.builds(WaitStep, st.lists(ints, max_size=3).map(tuple), ints),
    st.builds(WaitStep, st.lists(st.booleans(), min_size=1, max_size=2),
              ints),
    st.builds(SendStep, st.sampled_from((True, False, 1.0, -0.5)), ints),
    st.builds(MarkedSend, ints, ints),
)

schedules = st.builds(
    Schedule, texts, texts, ints, ints, ints,
    st.lists(st.tuples(texts, texts), max_size=2),
    st.lists(st.lists(steps, max_size=4), max_size=4))


@given(schedule=schedules)
@settings(max_examples=300, deadline=None)
def test_to_json_is_json_dumps_of_to_dict(schedule):
    expected = json.dumps(schedule.to_dict())
    assert schedule.to_json() == expected
    assert schedule.to_json() == expected       # now from the kept texts
    assert schedule.to_json(indent=1) == json.dumps(schedule.to_dict(),
                                                    indent=1)


json_values = st.recursive(
    st.none() | st.booleans() | ints | st.floats(allow_nan=False,
                                                 allow_infinity=False)
    | texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(texts, inner, max_size=3),
    max_leaves=6)

FIELDS = sorted({name for cls in STEP_TYPES.values() for name in cls._fields})


@st.composite
def step_objects(draw):
    """A step object near its shape — every field of a tag, each an int, a
    direction word or any JSON value, then maybe one key dropped or one
    added — or any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    tag = draw(st.sampled_from(sorted(STEP_TYPES)) | json_values)
    cls = STEP_TYPES.get(tag) if type(tag) is str else None
    names = cls._fields if cls else draw(st.lists(st.sampled_from(FIELDS),
                                                  max_size=3, unique=True))
    d = {"step": tag}
    for name in names:
        d[name] = draw(ints | st.sampled_from(("send", "recv", "up"))
                       | st.lists(ints, max_size=3) | json_values)
    if draw(st.booleans()):
        d.pop(draw(st.sampled_from(sorted(d))))
    if draw(st.booleans()):
        d[draw(st.sampled_from(FIELDS) | texts)] = draw(json_values)
    return d


def walked(value):
    """What the checked walk makes of ``value``: (step, None) or (None,
    the message ``from_json`` must give)."""
    try:
        return step_from_dict(copy.deepcopy(value)), None
    except (RecordError, ScheduleError) as exc:
        return None, "ranks[0][0]: %s" % exc


@given(value=step_objects())
@example(value={"step": "wait", "children": [1, True], "seg": 0})
@example(value={"step": "wait", "children": [1, 1.0], "seg": 0})
@example(value={"step": "wait", "children": [1, 2], "seg": 0})
@settings(max_examples=600, deadline=None)
def test_from_json_decodes_a_step_as_the_checked_walk_does(value):
    text = json.dumps({"schema": 1, "collective": "reduce", "lowering": "x",
                       "nranks": 1, "ranks": [[value]]})
    outcomes = []
    for _ in range(2):      # a value maybe not built yet, then one that is
        try:
            outcomes.append((Schedule.from_json(text).steps[0][0], None))
        except ScheduleError as exc:
            outcomes.append((None, str(exc)))
    expected, message = walked(value)
    for step, refusal in outcomes:
        assert refusal == message
        assert step == expected
        assert step is expected
