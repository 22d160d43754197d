"""Execute a :class:`repro.schedule.ir.Schedule` through the live machinery.

``execute_schedule`` is a rank program fragment (a generator, like every
collective).  It adds no execution path of its own: it reads this rank's
steps, ``schedule.steps[me]``, and hands them as ``steps=`` to the entry
point ``mpi.<collective>`` itself uses — ``reduce_nab``, ``bcast_binomial``,
:meth:`AbEngine.reduce`, :meth:`AbPipeline.allreduce` — which would
otherwise derive them from the configured tree
(:func:`repro.mpich.collectives.walk.own_steps`).  From there both routes
are the same code; ``tests/integration/test_schedule_interpreter.py`` pins
both to a fixture captured before the hand-written loops were deleted.

What is left here is guards and dispatch.  The lowering name picks the
entry point: ``reduce.ab`` / ``allreduce.ab`` reduce through the AB engine
(descriptors, signals and the exit-delay window run unchanged, with
neighbours read off the steps), ``allreduce.pipelined`` runs
:class:`~repro.pipeline.reduce.AbPipeline` (both legs follow the steps, so
a reshaped schedule executes), everything else walks on the host; a
sequential allreduce is its reduce leg, then its bcast leg, each as its own
call.  Whatever cannot execute under this rank's build or config is one
:class:`ScheduleExecutionError` line naming the rank and the lowering.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Optional

import numpy as np

from ..mpich.collectives.bcast import bcast_binomial
from ..mpich.collectives.reduce import reduce_nab
from ..mpich.collectives.walk import ScheduleExecutionError
from ..mpich.communicator import Communicator
from ..mpich.datatypes import Datatype, from_array
from ..mpich.operations import SUM, Op
from ..schedule.ir import BcastStep, Schedule, reduce_neighbors

__all__ = ["ScheduleExecutionError", "execute_schedule"]

#: Lowerings whose reduce leg runs on the AB engine.
_AB_LOWERINGS = ("reduce.ab", "allreduce.ab", "allreduce.pipelined")


def execute_schedule(rank, schedule: Schedule, sendbuf,
                     op: Op = SUM, comm: Optional[Communicator] = None,
                     recvbuf: Optional[np.ndarray] = None, *,
                     count: Optional[int] = None,
                     dtype: Optional[Datatype] = None) -> Generator:
    """Run ``schedule`` on this rank; a generator like every collective.

    ``sendbuf`` is the contribution for reduce/allreduce, or the broadcast
    payload (root) / optional receive buffer (non-root, else pass ``count``
    and ``dtype``) for bcast schedules.
    """
    if comm is None:
        comm = rank.comm_world
    me = comm.rank_of_world(rank.rank)
    root, lowering = schedule.root, schedule.lowering
    try:
        if schedule.nranks != comm.size:
            raise ScheduleExecutionError(
                "it is for %d ranks but the communicator has %d"
                % (schedule.nranks, comm.size))
        steps = schedule.steps[me]
        if schedule.collective == "bcast":
            result = yield from bcast_binomial(rank, sendbuf, root, comm,
                                               count=count, dtype=dtype,
                                               steps=steps)
            return result
        if schedule.collective not in ("reduce", "allreduce"):
            raise ScheduleExecutionError(
                "no interpreter for collective %r" % (schedule.collective,))

        buf = np.asarray(sendbuf)
        engine = rank.ab_engine
        segments = None if engine is None else engine.route(buf, comm.size)
        reduce = partial(reduce_nab, rank)
        if lowering in _AB_LOWERINGS:
            pipelined = lowering == "allreduce.pipelined"
            if engine is None or (pipelined and engine.pipeline is None):
                raise ScheduleExecutionError(
                    "it needs an AB build%s"
                    % (" with an armed pipeline" if pipelined else ""))
            if segments is None:
                raise ScheduleExecutionError(
                    "a rendezvous-sized payload (%d bytes) cannot take the "
                    "AB route; lower with reduce.nab instead" % buf.nbytes)
            if me != root and reduce_neighbors(steps)[0] is None:
                raise ScheduleExecutionError(
                    "its steps send the partial result to nobody (only the "
                    "root may keep it)")
            if pipelined:
                result = yield from engine.pipeline.allreduce(
                    buf, op, comm, segments, root=root, steps=steps)
                return result
            reduce = engine.reduce
        if schedule.collective == "reduce":
            result = yield from reduce(buf, op, root, comm, recvbuf,
                                       steps=steps)
            return result

        # Sequential allreduce: the schedule's reduce leg to its root, then
        # its bcast leg — the composition ``mpi.allreduce`` makes of
        # ``mpi.reduce`` and ``mpi.bcast``.
        if segments:
            raise ScheduleExecutionError(
                "the config pipelines this allreduce; lower with "
                "allreduce.pipelined instead")
        result = yield from reduce(
            buf, op, root, comm,
            steps=[s for s in steps if type(s) is not BcastStep])
        down = [s for s in steps if type(s) is BcastStep]
        if me == root:
            result = yield from bcast_binomial(rank, result, root, comm,
                                               steps=down)
            return result
        result = yield from bcast_binomial(
            rank, None, root, comm, count=buf.size, dtype=from_array(buf),
            steps=down)
        return result.reshape(buf.shape)
    except ScheduleExecutionError as exc:
        raise ScheduleExecutionError(
            "rank %d cannot execute this %s schedule: %s"
            % (me, lowering, exc)) from None
