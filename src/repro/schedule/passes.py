"""Rewrite passes: pure ``Schedule -> Schedule`` transforms behind a registry.

Passes never touch the simulator — they are plain data transforms, which is
what makes them unit-testable on the IR alone.  Each records itself in the
schedule's ``meta`` provenance trail.

Built-in passes:

``pipeline_segments``
    Lowery–Langou greedy segment pipelining (arXiv:1310.4645): replay a
    whole-message reduce/bcast schedule once per segment, forwarding each
    segment as soon as it is folded.  Produces exactly the step order the
    segmented lowerings emit directly.
``reshape_tree``
    Re-lower the schedule onto a different tree shape from the
    ``repro.topo`` registry, preserving collective, root and segmentation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable

from ..topo.trees import make_tree_shape
from .ir import Schedule, ScheduleError

PASSES: Dict[str, Callable[..., Schedule]] = {}


class PassError(ScheduleError):
    """A rewrite pass was applied to a schedule it does not accept."""


def register_pass(name: str):
    """Decorator adding a pass to :data:`PASSES`."""

    def deco(fn):
        if name in PASSES:
            raise ScheduleError("duplicate pass %r" % (name,))
        PASSES[name] = fn
        return fn

    return deco


def get_pass(name: str) -> Callable[..., Schedule]:
    try:
        return PASSES[name]
    except KeyError:
        raise PassError(
            "unknown pass %r (have: %s)"
            % (name, ", ".join(sorted(PASSES)))) from None


def apply_passes(schedule: Schedule, specs: Iterable) -> Schedule:
    """Apply a sequence of passes; each spec is a name or (name, kwargs)."""
    for spec in specs:
        if isinstance(spec, str):
            name, kwargs = spec, {}
        else:
            name, kwargs = spec
        schedule = get_pass(name)(schedule, **dict(kwargs))
    return schedule


@register_pass("pipeline_segments")
def pipeline_segments(schedule: Schedule, *, nseg: int) -> Schedule:
    """Greedy segment pipelining of a whole-message reduce/bcast schedule."""
    if schedule.collective not in ("reduce", "bcast"):
        raise PassError(
            "pipeline_segments handles reduce/bcast schedules, not %r"
            % (schedule.collective,))
    if schedule.nseg != 0:
        raise PassError("schedule is already segmented (nseg=%d)"
                        % schedule.nseg)
    if nseg < 2:
        raise PassError("nseg must be >= 2, got %d" % nseg)
    steps = tuple(
        tuple(step.with_seg(k) for k in range(nseg) for step in rank)
        for rank in schedule.steps)
    out = replace(schedule, nseg=nseg, steps=steps)
    return out.with_meta("pass", "pipeline_segments(%d)" % nseg)


@register_pass("reshape_tree")
def reshape_tree(schedule: Schedule, *, shape: str, radix: int = 2) -> Schedule:
    """Re-lower the schedule onto a different tree shape."""
    from .lower import LOWERINGS
    try:
        fn = LOWERINGS[schedule.lowering]
    except KeyError:
        raise PassError(
            "cannot reshape %r: lowering %r is not registered"
            % (schedule.collective, schedule.lowering)) from None
    new_shape = make_tree_shape(shape, radix=radix)
    out = fn(new_shape, schedule.nranks, root=schedule.root,
             nseg=schedule.nseg)
    return out.with_meta("pass", "reshape_tree(%s)" % new_shape.name)
