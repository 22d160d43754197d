"""The host-side step walker: one rank's schedule steps, executed in order.

Every collective entry point — ``reduce_nab``, ``bcast_binomial``,
:meth:`AbEngine.reduce <repro.core.engine.AbEngine.reduce>`,
:meth:`AbPipeline.allreduce <repro.pipeline.reduce.AbPipeline.allreduce>` —
takes one optional ``steps=``: this rank's own step tuple.
:func:`own_steps` is where it comes from when the caller gives none (an
``mpi.<collective>`` call): the one derivation from the configured tree.
The schedule interpreter (:mod:`repro.core.interpreter`) passes
``schedule.steps[me]``, and from there both run the same code.  Every
blocking (non-bypass) path then walks its steps here; what differs between
the callers is the *prologue* (the ledger charges billed before the first
step).  The receive → fold → send order itself lives only in
:func:`walk_steps`, which ``mpi.barrier`` walks too.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from ...errors import ReproError
from ...schedule.ir import BcastStep, FoldStep, RecvStep, SendStep
from ...schedule.lower import seg_ids
from ...sim.process import Ledger
from ...topo import ranks as tree
from ..communicator import Communicator
from ..message import TAG_BCAST, TAG_REDUCE
from ..operations import Op


class ScheduleExecutionError(ReproError):
    """A schedule cannot execute under this rank's build/config."""


def own_steps(rank, comm: Communicator, root: int, nbytes: int, segments,
              derive: Callable, steps: Optional[Sequence] = None) -> Sequence:
    """This rank's steps of a collective rooted at ``root`` over an
    ``nbytes`` payload cut into ``segments`` (None or empty: whole message).

    With ``steps`` None they are derived: ``derive`` — a per-rank function
    of :mod:`repro.schedule.lower` — over this rank's family in the
    configured tree, resolved once from the message size.  They are a pure
    function of ``(derive, shape, root, me, nseg)`` over a fixed group, so
    they are interned on ``comm`` and every later call returns the same
    tuple (its steps are interned values, :class:`~repro.schedule.ir.Step`).
    A caller's own ``steps`` are refused, before anything is simulated,
    unless they span exactly the config's segment plan.
    """
    nseg = len(segments or ())
    if steps is None:
        shape = rank.tree_shape_for(nbytes)
        me = comm.rank_of_world(rank.rank)
        key = (derive, shape, root, me, nseg)
        steps = comm.interned_steps.get(key)
        if steps is None:
            steps = comm.interned_steps[key] = tuple(
                derive(*tree.family(shape, comm.size, root, me),
                       seg_ids(nseg)))
        return steps
    if steps:
        span = 1 + max(step.seg for step in steps)   # whole message: -1
        if span != nseg:
            raise ScheduleExecutionError(
                "its steps span nseg=%d but the config plans %d segment(s) "
                "for %d bytes — align PipelineParams with the schedule"
                % (span, nseg, nbytes))
    return steps


def walk_steps(rank, comm: Communicator, steps: Sequence, buf: np.ndarray, *,
               op: Optional[Op] = None, segments=None,
               ledger: Optional[Ledger] = None,
               on_fold: Optional[Callable] = None,
               tag: int = TAG_REDUCE) -> Generator:
    """Walk ``steps`` (one rank's) over the flat buffer ``buf``.

    ``buf`` is the accumulator of a reduce (folds land in it, sends read
    it), the payload buffer of a bcast or a barrier's zero-byte token.  A
    step's chunk is ``buf`` itself for a whole message (``segments`` None)
    or the slice of ``segments[step.seg]``.  ``ledger`` carries the
    caller's prologue charges and is billed before the first step;
    ``on_fold(step)`` runs after each fold, before its cost is billed.
    Receives (on ``tag``, as sends) follow the receive rule of
    :mod:`repro.schedule.ir`, into one scratch buffer per unfolded operand
    (none without an ``op``).  A step the host cannot execute (a
    :class:`~repro.schedule.ir.WaitStep` completes on the NIC; a fold needs
    an ``op``) raises :class:`ScheduleExecutionError`.
    """
    costs = rank.costs
    progress = rank.progress
    context = comm.coll_context
    if ledger is not None:
        yield ledger
    spare: list = []    # scratch buffers no unfolded operand holds
    held: dict = {}     # (peer, seg) -> scratch received into, not folded
    posted = None       # the receive the rule has yet to complete
    for step in steps:
        if segments is None:
            chunk = buf
        else:
            s = segments[step.seg]
            chunk = buf[s.offset:s.offset + s.count]
        kind = type(step)
        if kind is SendStep:
            request = yield from rank.isend(chunk, step.peer, tag, comm,
                                            _context=context)
            if not request.done:  # an eager send is complete on return
                yield from progress.wait(request)
            continue
        if posted is not None and not posted.done:
            yield from progress.wait(posted)
        posted = None
        if kind is RecvStep:
            scratch = None
            if op is not None:
                n = chunk.size
                scratch = (spare.pop() if spare and spare[-1].size >= n
                           else np.empty(n, dtype=buf.dtype))
                held.setdefault((step.peer, step.seg), []).append(scratch)
                scratch = scratch[:n]
            posted = yield from rank.irecv(scratch, step.peer, tag, comm,
                                           _context=context)
        elif kind is FoldStep and op is not None:
            scratch = held[step.child, step.seg].pop()
            spare.append(scratch)
            op_ledger = Ledger()
            op_ledger.charge(costs.op_us(chunk.size), "op")
            op.apply(chunk, scratch[:chunk.size])
            if on_fold is not None:
                on_fold(step)
            yield op_ledger
        elif kind is BcastStep and step.direction == "recv":
            yield from rank.recv(chunk, step.peer, TAG_BCAST, comm,
                                 _context=context)
        elif kind is BcastStep:
            yield from rank.send(chunk, step.peer, TAG_BCAST, comm,
                                 _context=context)
        else:
            raise ScheduleExecutionError(
                "%r cannot be walked on the host" % (step,))
    if posted is not None and not posted.done:
        yield from progress.wait(posted)
