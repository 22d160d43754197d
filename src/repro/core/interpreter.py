"""Execute a :class:`repro.schedule.ir.Schedule` through the live machinery.

``execute_schedule`` is a rank program fragment (a generator, like every
collective).  It adds no execution path of its own: it hands the schedule
to the entry point ``mpi.<collective>`` itself uses — ``reduce_nab``,
``bcast_binomial``, :meth:`AbEngine.reduce` — which then reads this rank's
steps from ``schedule.steps[me]`` instead of deriving them from the
configured tree.  Prologue charges, the host-side step walker
(:mod:`repro.mpich.collectives.walk`) and the AB mechanisms are therefore
the same code on both routes; ``tests/integration/test_schedule_interpreter.py``
pins both to a fixture captured before the hand-written loops were deleted.

How each lowering executes:

``reduce.nab`` / ``bcast.tree`` / ``allreduce.reduce_bcast``
    ``reduce_nab`` / ``bcast_binomial`` with ``schedule=``; an allreduce is
    its reduce steps, then its bcast steps, each as its own call.
``reduce.ab`` / ``allreduce.ab``
    :meth:`AbEngine.reduce` with a :class:`~repro.core.plan.CollectivePlan`
    derived from the schedule — descriptors, signals and the exit-delay
    window all run unchanged, just with schedule-resolved neighbors; the
    root (which can never bypass) walks the schedule's steps on the host.
``allreduce.pipelined``
    This rank's steps are verified against its own config-derived
    :func:`~repro.schedule.lower.pipelined_rank_steps` (the AB broadcast
    extension routes by the configured tree, so a reshaped schedule cannot
    execute) — O(own steps) per call, like everything else a rank does —
    then driven through :class:`~repro.pipeline.reduce.AbPipeline`.

Guards: a schedule whose segmentation disagrees with the config's plan, an
AB schedule on a non-AB build, a rendezvous-sized payload on an AB
schedule, or a step the host walker cannot execute raise
:class:`ScheduleExecutionError`.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..mpich.collectives.bcast import bcast_binomial
from ..mpich.collectives.reduce import reduce_nab
from ..mpich.collectives.walk import ScheduleExecutionError
from ..mpich.communicator import Communicator
from ..mpich.datatypes import Datatype, from_array
from ..mpich.operations import SUM, Op
from ..schedule.ir import Schedule, reduce_neighbors
from ..schedule.lower import pipelined_rank_steps, seg_ids
from ..topo import ranks as tree
from .plan import CollectivePlan

__all__ = ["ScheduleExecutionError", "execute_schedule"]


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
    if schedule.nranks != comm.size:
        raise ScheduleExecutionError(
            "schedule is for %d ranks but the communicator has %d"
            % (schedule.nranks, comm.size))
    if schedule.collective == "reduce":
        result = yield from _execute_reduce(rank, schedule,
                                            np.asarray(sendbuf), op, comm,
                                            recvbuf)
        return result
    if schedule.collective == "bcast":
        result = yield from bcast_binomial(rank, sendbuf, schedule.root, comm,
                                           count=count, dtype=dtype,
                                           schedule=schedule)
        return result
    if schedule.collective == "allreduce":
        buf = np.asarray(sendbuf)
        if schedule.lowering == "allreduce.pipelined":
            result = yield from _execute_allreduce_pipelined(
                rank, schedule, buf, op, comm)
        else:
            result = yield from _execute_allreduce_sequential(
                rank, schedule, buf, op, comm)
        return result
    raise ScheduleExecutionError(
        "no interpreter for collective %r" % (schedule.collective,))


def _plan_from_schedule(schedule: Schedule, comm: Communicator,
                        me: int) -> CollectivePlan:
    parent, children = reduce_neighbors(schedule, me)
    if parent is None and me != schedule.root:
        raise ScheduleExecutionError(
            "rank %d has no parent in the schedule (only the root does not "
            "send on)" % me)
    return CollectivePlan(
        parent_world=None if parent is None else comm.world_rank(parent),
        children_world=tuple(comm.world_rank(c) for c in children),
        schedule=schedule)


def _execute_reduce(rank, schedule: Schedule, sendbuf: np.ndarray, op: Op,
                    comm: Communicator, recvbuf) -> Generator:
    if schedule.lowering not in ("reduce.ab", "allreduce.ab"):
        result = yield from reduce_nab(rank, sendbuf, op, schedule.root,
                                       comm, recvbuf, schedule=schedule)
        return result
    engine = rank.ab
    if engine is None:
        raise ScheduleExecutionError(
            "a reduce.ab schedule needs an AB-build rank")

    # Segmentation consistency first (routing is pure, no sim effect).
    segments = engine.route(sendbuf, comm.size)
    planned = len(segments or ())
    if planned != schedule.nseg:
        raise ScheduleExecutionError(
            "schedule has nseg=%d but the AB pipeline plans %d segment(s) "
            "for %d bytes" % (schedule.nseg, planned, sendbuf.nbytes))
    if segments is None:
        raise ScheduleExecutionError(
            "rendezvous-sized payload (%d bytes) cannot run an AB "
            "schedule; lower with reduce.nab instead" % sendbuf.nbytes)

    plan = _plan_from_schedule(schedule, comm,
                               comm.rank_of_world(rank.rank))
    result = yield from engine.reduce(sendbuf, op, schedule.root, comm,
                                      recvbuf, plan=plan)
    return result


def _execute_allreduce_sequential(rank, schedule: Schedule,
                                  sendbuf: np.ndarray, op: Op,
                                  comm: Communicator) -> Generator:
    """The schedule's reduce leg to its root, then its bcast leg — the
    composition ``allreduce_reduce_bcast`` makes of ``mpi.reduce`` and
    ``mpi.bcast``."""
    if rank.ab is not None and rank.ab.route(sendbuf, comm.size):
        raise ScheduleExecutionError(
            "the config pipelines this allreduce; lower with "
            "allreduce.pipelined instead")
    result = yield from _execute_reduce(rank, schedule, sendbuf, op, comm,
                                        None)
    if comm.rank_of_world(rank.rank) == schedule.root:
        out = yield from bcast_binomial(rank, result, schedule.root, comm,
                                        schedule=schedule)
        return out
    out = yield from bcast_binomial(rank, None, schedule.root, comm,
                                    count=sendbuf.size,
                                    dtype=from_array(sendbuf),
                                    schedule=schedule)
    return out.reshape(sendbuf.shape)


def _execute_allreduce_pipelined(rank, schedule: Schedule,
                                 sendbuf: np.ndarray, op: Op,
                                 comm: Communicator) -> Generator:
    """``AbPipeline.allreduce``, after proving the schedule matches the
    configured tree (the AB broadcast extension routes by config)."""
    engine = rank.ab
    if engine is None or engine.pipeline is None:
        raise ScheduleExecutionError(
            "an allreduce.pipelined schedule needs an AB build with an "
            "armed pipeline")
    segments = engine.route(sendbuf, comm.size)
    planned = len(segments or ())
    if planned != schedule.nseg or not segments:
        raise ScheduleExecutionError(
            "schedule has nseg=%d but the AB pipeline plans %d segment(s) "
            "for %d bytes" % (schedule.nseg, planned, sendbuf.nbytes))

    # The broadcast extension derives its forwarding tree from the config,
    # so this rank's steps must agree with its own config-derived
    # lowering; a reshaped pipelined allreduce is not executable.
    me = comm.rank_of_world(rank.rank)
    shape = rank.tree_shape_for(sendbuf.nbytes)
    if shape.name != rank.tree_shape.name:
        raise ScheduleExecutionError(
            "auto-resolved reduce tree %r differs from the broadcast tree "
            "%r; pipelined allreduce schedules need one tree"
            % (shape.name, rank.tree_shape.name))
    expected = pipelined_rank_steps(
        *tree.family(shape, comm.size, schedule.root, me),
        seg_ids(schedule.nseg))
    if tuple(expected) != schedule.steps[me]:
        raise ScheduleExecutionError(
            "allreduce.pipelined schedule disagrees with the configured "
            "%r tree on rank %d; the AB broadcast extension cannot follow "
            "a reshaped schedule" % (shape.name, me))

    result = yield from engine.pipeline.allreduce(
        sendbuf, op, comm, segments, root=schedule.root,
        plan=_plan_from_schedule(schedule, comm, me))
    return result
