"""The host-side step walker: one rank's schedule steps, executed in order.

Every blocking (non-bypass) collective path is "derive my steps, walk
them": ``reduce_nab`` and ``bcast_binomial`` derive this rank's steps from
the configured tree (:mod:`repro.schedule.lower`) or, when the schedule
interpreter (:mod:`repro.core.interpreter`) hands them a
:class:`~repro.schedule.ir.Schedule`, read them from it; the root of an AB
reduce — which can never bypass — walks its steps with a per-fold callback
for the pipeline's counters.  What differs between the callers is the
*prologue* (the ledger charges billed before the first step) and where the
steps come from; the receive → fold → send order itself lives only here.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from ...errors import ReproError
from ...schedule.ir import (BcastStep, FoldStep, RecvStep, Schedule,
                            SendStep)
from ...sim.cpu import Ledger
from ...sim.process import Busy
from ..communicator import Communicator
from ..message import TAG_BCAST, TAG_REDUCE
from ..operations import Op


class ScheduleExecutionError(ReproError):
    """A schedule cannot execute under this rank's build/config."""


def schedule_steps(schedule: Schedule, me: int, segments, nbytes: int, *,
                   bcast: bool = False) -> Sequence:
    """Rank ``me``'s steps of ``schedule`` — of an allreduce, its reduce leg
    or its ``bcast`` leg — refused, before anything is simulated, unless
    the schedule was lowered for the config's segment plan."""
    planned = len(segments or ())
    if planned != schedule.nseg:
        raise ScheduleExecutionError(
            "schedule has nseg=%d but the config plans %d segment(s) for "
            "%d bytes — align PipelineParams with the schedule"
            % (schedule.nseg, planned, nbytes))
    steps = schedule.steps[me]
    if schedule.collective == "allreduce":
        steps = [s for s in steps if (type(s) is BcastStep) == bcast]
    return steps


def walk_steps(rank, comm: Communicator, steps: Sequence, buf: np.ndarray, *,
               op: Optional[Op] = None, segments=None,
               ledger: Optional[Ledger] = None,
               on_fold: Optional[Callable] = None,
               lowering: str = "") -> Generator:
    """Walk ``steps`` (one rank's) over the flat buffer ``buf``.

    ``buf`` is the accumulator of a reduce (folds land in it, sends read
    it) or the payload buffer of a bcast.  A step's chunk is ``buf`` itself
    for a whole message (``segments`` None) or the slice of
    ``segments[step.seg]``.  ``ledger`` carries the caller's prologue
    charges and is billed before the first step; ``on_fold(step)`` runs
    after each fold, before its cost is billed.  A step the host cannot
    execute (a :class:`~repro.schedule.ir.WaitStep` completes on the NIC; a
    fold needs an ``op``) raises :class:`ScheduleExecutionError`.
    """
    costs = rank.costs
    context = comm.coll_context
    if ledger is not None:
        yield Busy.from_ledger(ledger)
    tmp = None
    for step in steps:
        if segments is None:
            chunk = buf
        else:
            s = segments[step.seg]
            chunk = buf[s.offset:s.offset + s.count]
        kind = type(step)
        if kind is RecvStep:
            if tmp is None or tmp.size < chunk.size:
                tmp = np.empty(chunk.size, dtype=buf.dtype)
            yield from rank.recv(tmp[:chunk.size], step.peer, TAG_REDUCE,
                                 comm, _context=context)
        elif kind is FoldStep and op is not None:
            op_ledger = Ledger()
            op_ledger.charge(costs.op_us(chunk.size), "op")
            op.apply(chunk, tmp[:chunk.size])
            if on_fold is not None:
                on_fold(step)
            yield Busy.from_ledger(op_ledger)
        elif kind is SendStep:
            yield from rank.send(chunk, step.peer, TAG_REDUCE, comm,
                                 _context=context)
        elif kind is BcastStep and step.direction == "recv":
            yield from rank.recv(chunk, step.peer, TAG_BCAST, comm,
                                 _context=context)
        elif kind is BcastStep:
            yield from rank.send(chunk, step.peer, TAG_BCAST, comm,
                                 _context=context)
        else:
            raise ScheduleExecutionError(
                "rank %d cannot walk %r of a %s schedule on the host"
                % (comm.rank_of_world(rank.rank), step,
                   lowering or "hand-built"))
