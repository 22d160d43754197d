"""What is pipeline-specific about the segmented AB collectives
(repro.pipeline).

The Fig. 3 flow itself — route, window of per-segment descriptors over one
staging buffer, exit-delay spin, cut-through forwarding from the progress
hook — lives in :class:`repro.core.engine.AbEngine`, where a whole-message
reduce is simply the window of one pseudo-segment.  What remains here is
what only exists when a message is actually cut up:

* :meth:`AbPipeline.plan_for` — the segment plan the engine's routing
  decision (:meth:`AbEngine.route`) asks for;
* :class:`PipelineStats` — the per-rank segment counters the engine bumps
  on its ``seg >= 0`` branches;
* :meth:`AbPipeline.root_fold_hook` — the root's per-fold accounting for
  its host walk of a segmented reduce;
* the pipelined **allreduce**, which composes the segmented reduce with
  the application-bypass broadcast extension
  (:mod:`repro.core.broadcast`), Träff-style: the root folds segment *k*
  and immediately broadcasts it down the tree while segments *k+1..n* are
  still climbing up, so the reduce and broadcast phases overlap almost
  entirely for long messages.

Segmented packets are matched on their ``(context, instance, seg)``
identity like every AB packet (:mod:`repro.core.descriptor`).  Fault
composition (repro.faults): the engine recomputes
neighbors heal-aware at every segment descriptor *push*, so a subtree
healed mid-pipeline re-parents the remaining segments while earlier
segments are still in flight; per-segment descriptors carry their tree
context and recovery timers, making the engine's timeout/heal machinery
work on them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Generator, Optional, Sequence

import numpy as np

from ..mpich.collectives.walk import own_steps, walk_steps
from ..mpich.communicator import Communicator
from ..mpich.operations import Op
from ..sim.process import Ledger
from ..schedule.ir import BcastStep, bcast_children
from ..schedule.lower import pipelined_rank_steps
from .segmenter import Segment, plan_segments


@dataclass(slots=True)
class PipelineStats:
    """Per-rank counters for the pipelined collectives."""

    #: Collectives that took the pipelined path on this rank.
    pipelined_reduces: int = 0
    pipelined_allreduces: int = 0
    #: Segment-tagged AB sends (leaf streams + internal forwards).
    segments_sent: int = 0
    #: Segment folds into descriptors (internal nodes and split-phase
    #: roots), and the subset performed by the asynchronous component
    #: (progress driven by signals/other calls).
    segments_folded: int = 0
    segments_folded_async: int = 0
    #: Segment folds performed synchronously at a blocking root.
    root_segment_folds: int = 0
    #: Segmented packets that arrived before their descriptor was open
    #: (window exhausted or sender raced ahead) and had to be buffered —
    #: each is one copy the pipeline failed to bypass.
    pipeline_stalls: int = 0
    #: High-water mark of simultaneously open segment descriptors.
    inflight_hwm: int = 0
    #: Late segments from an already-abandoned child, discarded on
    #: arrival (fault runs only; zero on healthy clusters).
    stale_segments_dropped: int = 0


class AbPipeline:
    """What a segmented run adds to one rank's AB engine: segment plans,
    counters and the pipelined allreduce (never constructed when the
    config block is disarmed)."""

    def __init__(self, engine):
        self.engine = engine
        self.costs = engine.costs
        self.sim = engine.sim
        self.stats = PipelineStats()

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def plan_for(self, sendbuf: np.ndarray,
                 limit: int) -> Optional[list[Segment]]:
        """Segment plan if this buffer should pipeline, else None.

        Pipelining engages when the plan has at least two segments and every
        segment fits the AB eager path (``limit`` bytes) — the decision
        depends only on the (globally identical) config and buffer
        geometry, so all ranks agree without negotiation.  Callers ask
        :meth:`AbEngine.route`, which owns the limit.
        """
        params = self.engine.node.pipeline_params_for(sendbuf.nbytes)
        segments = plan_segments(params, sendbuf)
        if segments is None or max(s.nbytes for s in segments) > limit:
            return None
        return segments

    # ------------------------------------------------------------------
    # pipelined MPI_Allreduce (Träff-style reduce/bcast overlap)
    # ------------------------------------------------------------------
    def allreduce(self, sendbuf: np.ndarray, op: Op, comm: Communicator,
                  segments: list[Segment], *, root: int = 0,
                  steps: Optional[Sequence] = None) -> Generator:
        """Segmented reduce-to-root overlapped with segmented AB broadcast.

        Both legs follow this rank's ``steps`` — given none, the
        ``allreduce.pipelined`` steps :func:`own_steps` derives from the
        configured tree, once for both."""
        engine = self.engine
        me = comm.rank_of_world(engine.rank.rank)
        flat = np.ascontiguousarray(sendbuf).reshape(-1)
        shape = np.asarray(sendbuf).shape
        steps = own_steps(engine.rank, comm, root, flat.nbytes, segments,
                          pipelined_rank_steps, steps)
        # The broadcast extension must know where this rank forwards each
        # segment to before any bcast packet can arrive; every rank says so
        # on entry, which is guaranteed to precede the root's first segment
        # broadcast (that needs every rank's contribution first).
        bcaster = self._broadcaster()
        bcaster.follow(comm, bcast_children(steps), len(segments))
        self.stats.pipelined_allreduces += 1

        if me == root:
            result = yield from self._root_allreduce(
                flat, segments, steps, op, root, comm, bcaster)
        else:
            # Up phase: the ordinary entry point routes the buffer the same
            # way and runs the segmented reduce (leaf stream or descriptor
            # window) off the reduce phase of these steps; it returns with
            # segments still in flight, which is exactly the overlap the
            # down phase then rides.
            yield from engine.reduce(flat, op, root, comm, steps=steps)
            result = np.empty_like(flat)
            for step in steps:
                if type(step) is BcastStep and step.direction == "recv":
                    s = segments[step.seg]
                    yield from bcaster.bcast(
                        result[s.offset:s.offset + s.count], root, comm)
        return result.reshape(shape)

    def _root_allreduce(self, flat: np.ndarray, segments: list[Segment],
                        steps: Sequence, op: Op, root: int,
                        comm: Communicator, bcaster) -> Generator:
        """Root: fold segment k, broadcast it, move to k+1 — the reduce of
        later segments overlaps the broadcast of earlier ones.  The order
        is that of the root's own interleaved steps: each run of reduce
        steps is walked on the host, each run of ``BcastStep`` sends is one
        AB broadcast per segment."""
        engine = self.engine
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        ledger.charge(self.costs.ab_decision_us, "ab")
        instance = engine.instances.next(comm)
        ledger.charge(self.costs.tree_setup_us, "mpi")
        engine.stats.root_reduces += 1
        self.stats.pipelined_reduces += 1
        acc = np.array(flat, copy=True)
        ledger.charge(self.costs.copy_us(acc.nbytes), "copy")
        yield ledger
        on_fold = self.root_fold_hook(comm, instance)
        for down, run in groupby(steps, lambda s: type(s) is BcastStep):
            if not down:
                yield from walk_steps(engine.rank, comm, list(run), acc,
                                      op=op, segments=segments,
                                      on_fold=on_fold)
                continue
            for seg in dict.fromkeys(step.seg for step in run):
                s = segments[seg]
                yield from bcaster.bcast(acc[s.offset:s.offset + s.count],
                                         root, comm)
        return acc

    def root_fold_hook(self, comm: Communicator, instance: int):
        """Per-fold callback for the root's host walk of a segmented AB
        reduce: count the fold and report it to the monitor.

        Per-(child → root) segment streams are emitted in ascending segment
        order (leaves stream in order; internal forwards happen in
        completion order, which the per-child FIFO makes ascending), so the
        walker's plain FIFO receive picks up exactly the step's segment
        from each child."""
        engine = self.engine

        def on_fold(step) -> None:
            self.stats.root_segment_folds += 1
            if engine.monitor is not None:
                engine.monitor.on_segment_fold(
                    engine.rank.rank, comm.world_rank(step.child),
                    comm.coll_context, instance, step.seg, self.sim.now)

        return on_fold

    def _broadcaster(self):
        from ..core.broadcast import AbBroadcast
        return self.engine.bcast or AbBroadcast(self.engine)
