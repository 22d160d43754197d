"""The pre-worklist schedule validator, kept verbatim as a differential oracle.

These are the four checks of ``Schedule.validate`` exactly as they stood at
commit 9dd9f3b (``self`` is the schedule; only the method-call syntax
changed): ``isinstance`` ladders, three separate sweeps, and a progress
check that visits every rank round-robin until nothing moves — O(ranks²)
on a chain, which is why it left ``src/``.  Its verdicts and messages are
the specification the worklist validator in :mod:`repro.schedule.ir` is
held to (``tests/property/test_schedule_properties.py``); the one
deliberate difference, duplicate ``WaitStep`` children, is a rule the
oracle never had and the strategies there avoid.  Two edits since: the
progress check follows the receive rule of :mod:`repro.schedule.ir`,
modelled directly (a posted receive is due before the next non-send step)
where the worklist validator rewrites the program, and ``"barrier"`` is a
known collective.  Do not optimise or "fix" this file otherwise.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.schedule.ir import (AnyStep, BcastStep, FoldStep, RecvStep,
                               Schedule, ScheduleValidationError, SendStep,
                               WaitStep)


def validate(self: Schedule) -> Schedule:
    """Raise :class:`ScheduleValidationError` on any defect; return self."""
    _check_structure(self)
    _check_matching(self)
    _check_fold_operands(self)
    _check_progress(self)
    return self


def _check_structure(self: Schedule) -> None:
    if self.collective not in ("reduce", "bcast", "allreduce", "barrier"):
        raise ScheduleValidationError(
            "unknown collective %r" % (self.collective,))
    if self.nranks < 1:
        raise ScheduleValidationError("nranks must be >= 1")
    if not (0 <= self.root < self.nranks):
        raise ScheduleValidationError(
            "root %d out of range for %d ranks" % (self.root, self.nranks))
    if self.nseg < 0:
        raise ScheduleValidationError("nseg must be >= 0")
    if len(self.steps) != self.nranks:
        raise ScheduleValidationError(
            "schedule has %d rank step lists for %d ranks"
            % (len(self.steps), self.nranks))
    segs = (range(self.nseg) if self.nseg else (-1,))
    valid_segs = frozenset(segs)
    for me, rank in enumerate(self.steps):
        for step in rank:
            peers: Iterable[int]
            if isinstance(step, WaitStep):
                peers = step.children
                if not step.children:
                    raise ScheduleValidationError(
                        "rank %d: WaitStep with no children" % me)
            elif isinstance(step, FoldStep):
                peers = (step.child,)
            elif isinstance(step, (SendStep, RecvStep, BcastStep)):
                peers = (step.peer,)
            else:
                raise ScheduleValidationError(
                    "rank %d: unknown step %r" % (me, step))
            for peer in peers:
                if not (0 <= peer < self.nranks):
                    raise ScheduleValidationError(
                        "rank %d: peer %d out of range in %r"
                        % (me, peer, step))
                if peer == me:
                    raise ScheduleValidationError(
                        "rank %d: self-referential step %r" % (me, step))
            if step.seg not in valid_segs:
                raise ScheduleValidationError(
                    "rank %d: segment id %d invalid for nseg=%d in %r"
                    % (me, step.seg, self.nseg, step))


def _check_matching(self: Schedule) -> None:
    produced: Counter = Counter()
    consumed: Counter = Counter()
    for me, rank in enumerate(self.steps):
        for step in rank:
            if isinstance(step, SendStep):
                produced[("p2p", me, step.peer, step.seg)] += 1
            elif isinstance(step, RecvStep):
                consumed[("p2p", step.peer, me, step.seg)] += 1
            elif isinstance(step, WaitStep):
                for child in step.children:
                    consumed[("p2p", child, me, step.seg)] += 1
            elif isinstance(step, BcastStep):
                if step.direction == "send":
                    produced[("bc", me, step.peer, step.seg)] += 1
                else:
                    consumed[("bc", step.peer, me, step.seg)] += 1
    unmatched_recv = consumed - produced
    if unmatched_recv:
        key = next(iter(sorted(unmatched_recv)))
        raise ScheduleValidationError(
            "receive without a matching send: channel=%s %d->%d seg=%d "
            "(%d unmatched key(s))"
            % (key[0], key[1], key[2], key[3], len(unmatched_recv)))
    unmatched_send = produced - consumed
    if unmatched_send:
        key = next(iter(sorted(unmatched_send)))
        raise ScheduleValidationError(
            "send without a matching receive: channel=%s %d->%d seg=%d "
            "(%d unmatched key(s))"
            % (key[0], key[1], key[2], key[3], len(unmatched_send)))


def _check_fold_operands(self: Schedule) -> None:
    for me, rank in enumerate(self.steps):
        pending: Counter = Counter()
        for step in rank:
            if isinstance(step, RecvStep):
                pending[(step.peer, step.seg)] += 1
            elif isinstance(step, FoldStep):
                key = (step.child, step.seg)
                if pending[key] <= 0:
                    raise ScheduleValidationError(
                        "rank %d: fold of child %d seg %d has no "
                        "unconsumed receive" % (me, step.child, step.seg))
                pending[key] -= 1


def _check_progress(self: Schedule) -> None:
    """Abstractly execute all ranks; sends buffer, a ``RecvStep`` posts and
    is due before the rank's next step that is not a ``SendStep``, every
    other receive blocks."""
    channels: Counter = Counter()
    cursors = [0] * self.nranks
    posted: list = [None] * self.nranks     # rank -> RecvStep not yet due

    def runnable(me: int, step: AnyStep) -> bool:
        if isinstance(step, (SendStep, FoldStep)):
            return True
        if isinstance(step, RecvStep):
            return channels[("p2p", step.peer, me, step.seg)] > 0
        if isinstance(step, WaitStep):
            return all(channels[("p2p", c, me, step.seg)] > 0
                       for c in step.children)
        if step.direction == "send":
            return True
        return channels[("bc", step.peer, me, step.seg)] > 0

    def execute(me: int, step: AnyStep) -> None:
        if isinstance(step, SendStep):
            channels[("p2p", me, step.peer, step.seg)] += 1
        elif isinstance(step, RecvStep):
            channels[("p2p", step.peer, me, step.seg)] -= 1
        elif isinstance(step, WaitStep):
            for c in step.children:
                channels[("p2p", c, me, step.seg)] -= 1
        elif isinstance(step, BcastStep):
            if step.direction == "send":
                channels[("bc", me, step.peer, step.seg)] += 1
            else:
                channels[("bc", step.peer, me, step.seg)] -= 1

    progressed = True
    while progressed:
        progressed = False
        for me, rank in enumerate(self.steps):
            while True:
                step = rank[cursors[me]] if cursors[me] < len(rank) else None
                due = posted[me]
                if due is not None and not isinstance(step, SendStep):
                    if not runnable(me, due):
                        break
                    execute(me, due)
                    posted[me] = None
                elif step is None:
                    break
                elif isinstance(step, RecvStep):
                    posted[me] = step
                    cursors[me] += 1
                elif runnable(me, step):
                    execute(me, step)
                    cursors[me] += 1
                else:
                    break
                progressed = True
    stuck = [me for me in range(self.nranks)
             if posted[me] is not None or cursors[me] < len(self.steps[me])]
    if stuck:
        me = stuck[0]
        raise ScheduleValidationError(
            "deadlock: %d rank(s) blocked forever (rank %d stuck at %r)"
            % (len(stuck), me, posted[me] or self.steps[me][cursors[me]]))

