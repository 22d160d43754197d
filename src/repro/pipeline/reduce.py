"""Pipelined application-bypass reduce / allreduce (repro.pipeline).

The whole-message AB protocol (``repro.core.engine``) gives every internal
node exactly one reduce descriptor per collective; descriptors match
incoming packets by sender FIFO.  The pipelined variant generalizes this to
a *window*: an internal node keeps up to ``max_inflight_segments``
per-segment descriptors open at once, each accumulating into a disjoint
slice of one staging buffer.  When a segment's last child contribution is
folded, the engine forwards that slice to the parent and — via the
descriptor's ``on_complete`` callback — opens the next segment's
descriptor, all inside the progress hook, with no application involvement
(cut-through reduction).  Segmented packets carry their ``(instance, seg)``
identity and are matched exactly, because FIFO matching cannot tell two
open segments of the same instance apart.

The pipelined **allreduce** composes the segmented reduce with the
application-bypass broadcast extension (:mod:`repro.core.broadcast`),
Träff-style: the root folds segment *k* and immediately broadcasts it down
the tree while segments *k+1..n* are still climbing up, so the reduce and
broadcast phases overlap almost entirely for long messages.

Fault composition (repro.faults): neighbors are recomputed heal-aware at
every descriptor *push*, so a subtree healed mid-pipeline re-parents the
remaining segments while earlier segments are still in flight; per-segment
descriptors carry their tree context and recovery timers, making the
engine's timeout/heal machinery work on them unchanged.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..mpich.collectives.reduce import reduce_steps
from ..mpich.collectives.walk import schedule_steps, walk_steps
from ..mpich.communicator import Communicator
from ..mpich.message import TAG_REDUCE, AbHeader
from ..mpich.operations import Op
from ..sim.cpu import Ledger
from ..sim.events import PRIORITY_TIMER
from ..sim.process import Busy, WaitFor
from ..schedule.lower import reduce_rank_steps, seg_ids
from ..topo import ranks as tree
from ..core.delay import exit_delay_window
from ..core.descriptor import ReduceDescriptor
from ..core.plan import CollectivePlan
from .segmenter import Segment, Segmenter, plan_segments


class PipelineStats:
    """Per-rank counters for the pipelined collectives."""

    __slots__ = ("pipelined_reduces", "pipelined_allreduces",
                 "segments_sent", "segments_folded", "segments_folded_async",
                 "root_segment_folds", "pipeline_stalls", "inflight_hwm",
                 "stale_segments_dropped")

    def __init__(self) -> None:
        #: Collectives that took the pipelined path on this rank.
        self.pipelined_reduces = 0
        self.pipelined_allreduces = 0
        #: Segment-tagged AB sends (leaf streams + internal forwards).
        self.segments_sent = 0
        #: Segment folds on internal nodes, and the subset performed by the
        #: asynchronous component (progress driven by signals/other calls).
        self.segments_folded = 0
        self.segments_folded_async = 0
        #: Segment folds performed synchronously at the root.
        self.root_segment_folds = 0
        #: Segmented packets that arrived before their descriptor was open
        #: (window exhausted or sender raced ahead) and had to be buffered —
        #: each is one copy the pipeline failed to bypass.
        self.pipeline_stalls = 0
        #: High-water mark of simultaneously open segment descriptors.
        self.inflight_hwm = 0
        #: Late segments from an already-abandoned child, discarded on
        #: arrival (fault runs only; zero on healthy clusters).
        self.stale_segments_dropped = 0


class _WindowState:
    """Per-call window bookkeeping for one pipelined reduce instance."""

    __slots__ = ("segments", "staging", "comm", "shape", "root", "size",
                 "rel", "root_world", "instance", "op", "window", "plan",
                 "nseg", "next_seg", "open", "completed", "advancing")

    def __init__(self, segments: list[Segment], staging: np.ndarray,
                 comm: Communicator, shape, root: int, size: int, rel: int,
                 root_world: int, instance: int, op: Op, window: int,
                 plan: Optional[CollectivePlan] = None):
        self.segments = segments
        self.staging = staging
        self.comm = comm
        self.shape = shape
        self.root = root
        self.size = size
        self.rel = rel
        self.root_world = root_world
        self.instance = instance
        self.op = op
        self.window = window
        self.plan = plan
        self.nseg = len(segments)
        self.next_seg = 0
        self.open = 0
        self.completed = 0
        #: Re-entrancy latch: pushing a descriptor can synchronously fold
        #: buffered contributions, complete it, and call back into
        #: :meth:`AbPipeline._advance`; the latch flattens that recursion
        #: into the outer push loop.
        self.advancing = False


class AbPipeline:
    """Pipelined segmented collectives for one rank's AB engine."""

    def __init__(self, engine):
        self.engine = engine
        self.costs = engine.costs
        self.sim = engine.sim
        self.params = engine.node.config.pipeline
        self.segmenter = Segmenter(self.params)
        self.stats = PipelineStats()

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def plan_for(self, sendbuf: np.ndarray) -> Optional[list[Segment]]:
        """Segment plan if this buffer should pipeline, else None.

        Pipelining engages when the plan has at least two segments and every
        segment fits the AB eager path — the decision depends only on the
        (globally identical) config and buffer geometry, so all ranks agree
        without negotiation.
        """
        params = self.engine.node.pipeline_params_for(sendbuf.nbytes)
        segments = plan_segments(params, sendbuf)
        if segments is None:
            return None
        limit = min(self.costs.ab_eager_limit_bytes,
                    self.costs.eager_limit_bytes)
        if max(s.nbytes for s in segments) > limit:
            return None
        return segments

    # ------------------------------------------------------------------
    # pipelined MPI_Reduce
    # ------------------------------------------------------------------
    def reduce(self, sendbuf: np.ndarray, op: Op, root: int,
               comm: Communicator, recvbuf: Optional[np.ndarray],
               ledger: Ledger, segments: list[Segment], *,
               plan: Optional[CollectivePlan] = None) -> Generator:
        """Pipelined AB reduce; ``ledger`` already carries the call/decision
        charges from :meth:`AbEngine.reduce`, which delegates here."""
        engine = self.engine
        size = comm.size
        me = comm.rank_of_world(engine.rank.rank)
        instance = engine._next_instance(comm)
        ledger.charge(self.costs.tree_setup_us, "mpi")
        nbytes = np.asarray(sendbuf).nbytes
        shape = engine.rank.tree_shape_for(nbytes)
        window = engine.node.pipeline_params_for(nbytes).max_inflight_segments
        rel = tree.relative_rank(me, root, size)
        root_world = comm.world_rank(root)
        self.stats.pipelined_reduces += 1
        flat = np.ascontiguousarray(sendbuf).reshape(-1)

        if rel == 0:
            # The root cannot bypass (``MPI_Reduce`` must return the
            # result, paper Sec. II) but it still benefits: it folds
            # segment k while its children are combining k+1, instead of
            # waiting for whole messages to be staged at every level below.
            engine.stats.root_reduces += 1
            if plan is None:
                _, kids = tree.family(shape, size, root, me)
                steps = reduce_rank_steps(None, kids, seg_ids(len(segments)))
            else:
                steps = schedule_steps(plan.schedule, me, segments, nbytes)
            result = yield from reduce_steps(
                engine.rank, comm, steps, sendbuf, op, recvbuf, ledger,
                segments=segments, lowering="reduce.ab",
                on_fold=self.root_fold_hook(comm, instance))
            return result

        parent_world, children_world = self._neighbors(
            comm, shape, root, size, rel, instance, plan=plan)
        if not children_world:
            # Leaf (by position, or every subtree below crashed): stream the
            # segments back-to-back; nothing to wait for.
            engine.stats.leaf_sends += 1
            for s in segments:
                self._emit(flat[s.offset:s.offset + s.count], parent_world,
                           comm, root_world, instance, s.index,
                           len(segments), ledger)
            yield Busy.from_ledger(ledger)
            return None

        # ----- internal node: windowed Fig. 3 flow --------------------
        engine.stats.ab_reduces += 1
        progress = engine.rank.progress
        progress.active_depth += 1
        engine._sync_depth += 1
        try:
            if engine.signal_pins == 0:
                engine.nic.disable_signals(ledger)
            # One staging copy for the whole message; each segment's
            # descriptor accumulates into its disjoint slice.
            staging = np.array(flat, copy=True)
            ledger.charge(self.costs.copy_us(staging.nbytes), "copy")
            st = _WindowState(segments, staging, comm, shape, root, size,
                              rel, root_world, instance, op, window,
                              plan=plan)
            self._advance(st, ledger)
            yield Busy.from_ledger(ledger)

            # Walk/poll with the exit-delay window (Sec. IV-E); segments
            # still open at the deadline complete asynchronously, each one
            # pulling the next through ``on_complete`` — full bypass.
            deadline = self.sim.now + exit_delay_window(engine.params, size)
            while st.completed < st.nseg:
                trigger = engine.nic.rx_notifier.wait()
                loop_ledger = Ledger()
                progress.drain(loop_ledger)
                if loop_ledger.total > 0.0:
                    yield Busy.from_ledger(loop_ledger)
                if st.completed >= st.nseg:
                    engine.stats.window_catches += 1
                    break
                if self.sim.now >= deadline:
                    engine.stats.window_expires += 1
                    break
                self.sim.at(deadline, trigger.fire, None)
                yield WaitFor(trigger, poll_category="poll")
        finally:
            progress.active_depth -= 1
            engine._sync_depth -= 1

        exit_ledger = Ledger()
        if not engine.descriptors.empty or engine.signal_pins > 0:
            engine.nic.enable_signals(exit_ledger)
        if engine.monitor is not None:
            engine.monitor.on_reduce_exit(engine.rank.rank, self.sim.now)
        if exit_ledger.total > 0.0:
            yield Busy.from_ledger(exit_ledger)
        return None

    # ------------------------------------------------------------------
    # pipelined MPI_Allreduce (Träff-style reduce/bcast overlap)
    # ------------------------------------------------------------------
    def allreduce(self, sendbuf: np.ndarray, op: Op, comm: Communicator,
                  segments: list[Segment], *, root: int = 0,
                  plan: Optional[CollectivePlan] = None) -> Generator:
        """Segmented reduce-to-root overlapped with segmented AB broadcast."""
        engine = self.engine
        me = comm.rank_of_world(engine.rank.rank)
        # The broadcast extension must exist before any bcast packet can
        # arrive; every rank constructs it on its first pipelined allreduce,
        # which is guaranteed to precede the root's first segment broadcast
        # (that needs every rank's contribution first).
        bcaster = self._broadcaster(comm)
        self.stats.pipelined_allreduces += 1
        flat = np.ascontiguousarray(sendbuf).reshape(-1)
        shape = np.asarray(sendbuf).shape

        if me == root:
            result = yield from self._root_allreduce(
                flat, segments, op, root, comm, bcaster, shape)
            return result

        # Up phase: the ordinary entry point re-checks eligibility and runs
        # the pipelined reduce (leaf stream or windowed descriptors); it
        # returns with segments still in flight, which is exactly the
        # overlap the down phase then rides.
        yield from engine.reduce(flat, op, root, comm, plan=plan)
        out = np.empty_like(flat)
        for s in segments:
            yield from bcaster.bcast(out[s.offset:s.offset + s.count],
                                     root, comm)
        return out.reshape(shape)

    def _root_allreduce(self, flat: np.ndarray, segments: list[Segment],
                        op: Op, root: int, comm: Communicator, bcaster,
                        shape) -> Generator:
        """Root: fold segment k, broadcast it, move to k+1 — the reduce of
        later segments overlaps the broadcast of earlier ones."""
        engine = self.engine
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        ledger.charge(self.costs.ab_decision_us, "ab")
        instance = engine._next_instance(comm)
        ledger.charge(self.costs.tree_setup_us, "mpi")
        engine.stats.root_reduces += 1
        self.stats.pipelined_reduces += 1
        tshape = engine.rank.tree_shape_for(flat.nbytes)
        _, kids = tree.family(tshape, comm.size, root, root)
        acc = np.array(flat, copy=True)
        ledger.charge(self.costs.copy_us(acc.nbytes), "copy")
        yield Busy.from_ledger(ledger)
        on_fold = self.root_fold_hook(comm, instance)
        for s in segments:
            yield from walk_steps(
                engine.rank, comm, reduce_rank_steps(None, kids, (s.index,)),
                acc, op=op, segments=segments, on_fold=on_fold,
                lowering="allreduce.pipelined")
            yield from bcaster.bcast(acc[s.offset:s.offset + s.count],
                                     root, comm)
        return acc.reshape(shape)

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

    # ------------------------------------------------------------------
    # window machinery (internal nodes)
    # ------------------------------------------------------------------
    def _advance(self, st: _WindowState, ledger: Ledger) -> None:
        """Open descriptors until the window is full or segments run out."""
        if st.advancing:
            return
        st.advancing = True
        try:
            while st.open < st.window and st.next_seg < st.nseg:
                self._push_segment(st, ledger)
        finally:
            st.advancing = False

    def _push_segment(self, st: _WindowState, ledger: Ledger) -> None:
        engine = self.engine
        s = st.segments[st.next_seg]
        st.next_seg += 1
        # Heal-aware neighbors at *push* time: a subtree healed while
        # earlier segments were in flight re-parents the remaining ones.
        parent_world, children_world = self._neighbors(
            st.comm, st.shape, st.root, st.size, st.rel, st.instance,
            plan=st.plan)
        acc = st.staging[s.offset:s.offset + s.count]
        if not children_world:
            # Every subtree below crashed mid-pipeline: degenerate to a
            # leaf-style stream for the remaining segments.
            self._emit(acc, parent_world, st.comm, st.root_world,
                       st.instance, s.index, st.nseg, ledger)
            st.completed += 1
            return
        desc = ReduceDescriptor(
            context_id=st.comm.coll_context, root_world=st.root_world,
            instance=st.instance, parent_world=parent_world,
            children_world=children_world, op=st.op, acc=acc,
            tag=TAG_REDUCE, created_at=self.sim.now,
            comm=st.comm, shape=st.shape, root=st.root, size=st.size,
            rel=st.rel, seg=s.index, nseg=st.nseg,
            on_complete=lambda d, lg, _st=st: self._segment_done(_st, lg))
        ledger.charge(self.costs.ab_descriptor_us, "descriptor")
        engine.descriptors.push(desc)
        st.open += 1
        self.stats.inflight_hwm = max(self.stats.inflight_hwm, st.open)
        engine.node.tracer.emit("ab.segment.enqueue",
                                node=engine.rank.rank, instance=st.instance,
                                seg=s.index, nseg=st.nseg,
                                children=len(children_world))
        if engine._timeout_us > 0.0:
            desc.timeout_event = self.sim.schedule(
                engine._timeout_us, engine._on_descriptor_timeout, desc, 1,
                priority=PRIORITY_TIMER)
        # Stalled arrivals (window was full when they landed) are consumed
        # straight from the AB unexpected queue — may complete the
        # descriptor immediately and re-enter _advance via on_complete.
        engine._consume_unexpected(desc, ledger)

    def _segment_done(self, st: _WindowState, ledger: Ledger) -> None:
        """``on_complete`` of a segment descriptor: slide the window."""
        st.open -= 1
        st.completed += 1
        self._advance(st, ledger)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _emit(self, data: np.ndarray, dst_world: int, comm: Communicator,
              root_world: int, instance: int, seg: int, nseg: int,
              ledger: Ledger) -> None:
        """One segment-tagged AB eager send."""
        engine = self.engine
        header = AbHeader(root=root_world, instance=instance, kind="reduce",
                          seg=seg, nseg=nseg)
        engine.rank.progress.start_send(data, dst_world, TAG_REDUCE,
                                        comm.coll_context, ledger, ab=header)
        self.stats.segments_sent += 1
        if engine.monitor is not None:
            engine.monitor.on_segment_emit(
                engine.rank.rank, dst_world, comm.coll_context, instance,
                seg, self.sim.now)

    def _neighbors(self, comm: Communicator, shape, root: int, size: int,
                   rel: int, instance: int, *,
                   plan: Optional[CollectivePlan] = None
                   ) -> tuple[int, list[int]]:
        """(parent_world, children_world), healed when faults are armed.

        A schedule-injected ``plan`` short-circuits the derivation, but only
        on healthy runs — healing must keep re-routing mid-pipeline."""
        engine = self.engine
        if plan is not None and not engine._heal:
            return plan.parent_world, list(plan.children_world)
        if engine._heal:
            kids_rel = shape.children(rel, size)
            naive_parent = comm.world_rank(
                tree.absolute_rank(shape.parent(rel, size), root, size))
            parent_world = engine._live_ancestor_world(
                comm, shape, root, size, shape.parent(rel, size))
            if parent_world != naive_parent:
                engine.stats.sends_rerouted += 1
                engine._report_fault("send_rerouted", instance=instance,
                                     parent=parent_world)
            children_world, healed = engine._live_fringe(
                comm, shape, root, size, kids_rel)
            if healed:
                engine.stats.subtrees_healed += healed
                engine._report_fault("subtree_healed", instance=instance,
                                     healed=healed)
        else:
            parent, kids = tree.family(shape, size, root,
                                       tree.absolute_rank(rel, root, size))
            parent_world = comm.world_rank(parent)
            children_world = [comm.world_rank(c) for c in kids]
        return parent_world, children_world

    def _broadcaster(self, comm: Communicator):
        from ..core.broadcast import KIND, AbBroadcast
        bcaster = self.engine.extensions.get(KIND)
        if bcaster is None:
            bcaster = AbBroadcast(self.engine)
        bcaster.register_comm(comm)
        return bcaster
