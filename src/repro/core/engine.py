"""The application-bypass reduction engine (the paper's contribution).

One :class:`AbEngine` is attached to each rank of an AB-build MPI library
(:class:`repro.mpich.rank.MpiRank`).  It plays three roles:

1. **Reduce entry point** (:meth:`AbEngine.reduce`) — the synchronous
   component executed inside ``MPI_Reduce`` (paper Fig. 3), for both AB
   routes: :meth:`AbEngine.route` decides whole-message / segmented /
   size fallback, then an internal node opens a *window* of reduce
   descriptors over its staging copy — the segment plan of
   :mod:`repro.pipeline`, or one pseudo-segment (``seg == -1``) covering a
   whole message — consuming whatever child contributions already arrived
   (from the AB unexpected queue or via explicitly triggered progress),
   optionally lingers inside the exit-delay window (Sec. IV-E), then
   returns — enabling NIC signals if any descriptor is still outstanding.
   A completing descriptor opens the window's next segment from inside
   the progress hook (cut-through reduction).

2. **Progress-engine hook** (:meth:`AbEngine.preprocess`, Fig. 4 gray boxes)
   — pre-processes every incoming packet: non-AB packets pass through;
   every AB packet is matched on its identity (:mod:`repro.core.descriptor`
   states the rule) and absorbed (Fig. 5).  One bound for a reduction
   this rank roots that no descriptor (a split-phase root's, see
   :mod:`repro.core.split_phase`) matches takes the default synchronous
   path; any other is copied *once* into the custom AB unexpected queue.

3. **Asynchronous completion** — when a descriptor's last child is absorbed
   (from the hook, regardless of whether a signal or an application MPI call
   triggered progress), the final result is sent to the parent (a root's
   descriptor has none), the descriptor is dequeued, and signals are
   disabled once the queue drains — unless the AB broadcast
   (:mod:`repro.core.broadcast`) holds them armed.

Copy accounting (paper Sec. V-B/V-C): expected/late AB messages are combined
straight from the packet buffer (zero host copies); early AB messages pay a
single copy into the AB unexpected queue and are consumed from there.  The
rejected reuse-the-MPICH-queues design (Sec. V-A) is retained behind
``AbParams.reuse_mpich_queues`` as an ablation: it pays one extra copy per
message plus management overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional, Sequence

import numpy as np

from ..errors import AbProtocolError
from ..mpich.collectives.reduce import (_finish_root, reduce_nab,
                                        reduce_steps)
from ..mpich.collectives.walk import ScheduleExecutionError, own_steps
from ..mpich.communicator import Communicator, InstanceCounter
from ..mpich.message import TAG_REDUCE, AbHeader, Envelope
from ..mpich.operations import Op
from ..sim.events import PRIORITY_TIMER
from ..pipeline.segmenter import Segment
from ..schedule.ir import reduce_neighbors
from ..schedule.lower import ab_reduce_rank_steps
from ..sim.process import Ledger, Trigger
from ..topo import ranks as tree
from .delay import exit_delay_window
from .descriptor import DescriptorQueue, ReduceDescriptor
from .unexpected import AbUnexpectedQueue


@dataclass(slots=True)
class AbStats:
    """Per-rank counters for the application-bypass machinery."""

    ab_reduces: int = 0
    fallback_size: int = 0
    root_reduces: int = 0
    leaf_sends: int = 0
    children_async: int = 0
    children_from_unexpected: int = 0
    expected_zero_copy: int = 0
    unexpected_one_copy: int = 0
    ab_copies: int = 0
    descriptors_completed_sync: int = 0
    descriptors_completed_async: int = 0
    window_expires: int = 0
    window_catches: int = 0
    # Fault-recovery counters (repro.faults; all zero on healthy runs).
    descriptors_timed_out: int = 0
    subtrees_healed: int = 0
    sends_rerouted: int = 0


@dataclass(slots=True)
class _Window:
    """One AB reduce instance on an internal node: the segments still to
    open, the staging buffer their descriptors accumulate into, and the
    tree context every descriptor of the instance is built from."""

    segments: list[Segment]
    staging: np.ndarray
    comm: Communicator
    shape: object
    root: int
    rel: int
    instance: int
    op: Op
    #: Descriptors kept open at once (``max_inflight_segments``; a whole
    #: message is a window of one).
    width: int
    #: ``(parent_world, children_world)`` as last derived.
    neighbors: tuple[int, list[int]]
    next_seg: int = 0
    open: int = 0
    #: Fired once every segment has been forwarded to the parent.
    done: Trigger = field(default_factory=Trigger)
    #: Re-entrancy latch: pushing a descriptor can synchronously fold
    #: buffered contributions, complete it, and call back into
    #: :meth:`AbEngine._advance`; the latch flattens that recursion into
    #: the outer push loop.
    advancing: bool = False


class AbEngine:
    """Application-bypass state machine for one rank."""

    def __init__(self, rank):
        self.rank = rank
        self.node = rank.node
        self.costs = rank.costs
        self.sim = rank.sim
        config = rank.node.config
        self.params = config.ab
        self.nic = rank.node.nic
        self.descriptors = DescriptorQueue()
        self.unexpected = AbUnexpectedQueue()
        self.stats = AbStats()
        #: Protocol-invariant monitor (repro.analysis.invariants), shared
        #: cluster-wide via the NIC; None in unmonitored runs.
        self.monitor = getattr(self.nic, "monitor", None)
        if self.monitor is not None:
            self.monitor.register_engine(self)
        #: Reduce instance numbers (shared with the split-phase root and
        #: the pipelined allreduce root, which consume the same sequence).
        self.instances = InstanceCounter()
        #: The rank's AB broadcast (:mod:`repro.core.broadcast`), or None.
        #: It handles ``kind == "bcast"`` packets, and while it exists NIC
        #: signals stay armed regardless of the descriptor queue: its
        #: data can arrive before anything announces interest in it.
        self.bcast = None
        #: >0 while this rank is inside the synchronous component of an AB
        #: MPI_Reduce (Fig. 3).  Children absorbed then count as
        #: synchronous; everything else is the asynchronous component.
        self._sync_depth = 0
        # Fault-recovery configuration (repro.faults).  At defaults the
        # timeout is 0 (no timers armed) and healing is off, so the engine
        # behaves bit-identically to a build without the fault subsystem.
        rank.node.ab_engine = self
        faults = config.faults
        self._timeout_us = float(faults.descriptor_timeout_us)
        self._timeout_retries = int(faults.timeout_retries)
        #: ``(world_rank, now) -> bool`` — the fault schedule's perfect
        #: failure detector; None on fault-free clusters.
        self._crash_oracle = rank.node.crash_oracle
        #: ``(context, instance, seg, child)`` keys whose descriptor
        #: abandoned the child: a late packet matching one is discarded on
        #: arrival (see :meth:`preprocess`).
        self._stale: set[tuple[int, int, int, int]] = set()
        self._heal = bool(faults.tree_heal
                          and self._crash_oracle is not None)
        #: Segmented pipelined collectives (repro.pipeline).  Built only
        #: when the config block is armed, so disarmed runs never construct
        #: the subsystem and stay bit-identical to a build without it.
        self.pipeline = None
        if config.pipeline.armed:
            from ..pipeline.reduce import AbPipeline
            self.pipeline = AbPipeline(self)

    def _idle_if_drained(self, ledger: Ledger) -> None:
        """"Descriptor queue empty? -> Disable signals" (Fig. 5) — unless
        the AB broadcast holds them armed."""
        if not self.descriptors.empty or self.bcast is not None:
            return
        if self.nic.signals_enabled:
            self.nic.disable_signals(ledger)
        if self.monitor is not None:
            self.monitor.on_queue_drained(self.rank.rank, self.sim.now)

    # ==================================================================
    # role 1: the MPI_Reduce entry point (synchronous component, Fig. 3)
    # ==================================================================
    def route(self, sendbuf: np.ndarray, size: int):
        """How a reduce of ``sendbuf`` over ``size`` ranks travels — the
        one place the decision is made.  It depends only on the (globally
        identical) config and buffer geometry, so all ranks agree without
        negotiation.  Returns

        * the pipeline's segment plan (two or more eager-sized segments):
          segmented AB, checked first because segmentation is exactly what
          opens the large-message AB path;
        * ``()``: whole-message AB (a window of one);
        * ``None``: a rendezvous-sized payload — the whole tree falls back
          to the default reduction.
        """
        limit = min(self.costs.ab_eager_limit_bytes,
                    self.costs.eager_limit_bytes)
        if self.pipeline is not None and size > 1:
            segments = self.pipeline.plan_for(sendbuf, limit)
            if segments is not None:
                return segments
        return None if sendbuf.nbytes > limit else ()

    def reduce(self, sendbuf: np.ndarray, op: Op, root: int,
               comm: Communicator,
               recvbuf: Optional[np.ndarray] = None, *,
               steps: Optional[Sequence] = None) -> Generator:
        """Application-bypass ``MPI_Reduce`` (falls back where the paper
        does: message beyond the eager limit → default everywhere; root and
        leaf ranks → default behaviour with AB packet framing).

        The root walks ``steps`` on the host; every other rank reads its
        parent and children off them (:func:`reduce_neighbors`).  Given
        none, they are the ``reduce.ab`` steps :func:`own_steps` derives
        from the configured tree — the only tree armed healing can
        re-route along, so a caller's steps that leave it are refused."""
        size = comm.size
        me = comm.rank_of_world(self.rank.rank)
        if not (0 <= root < size):
            raise ValueError(f"root {root} outside communicator of size {size}")

        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        ledger.charge(self.costs.ab_decision_us, "ab")

        nbytes = sendbuf.nbytes
        segments = self.route(sendbuf, size)
        if segments is None:
            # Every rank sees the same size, so the decision is globally
            # consistent and no instance number is consumed.
            self.stats.fallback_size += 1
            yield ledger
            result = yield from reduce_nab(self.rank, sendbuf, op, root,
                                           comm, recvbuf, steps=steps)
            return result

        if size == 1:
            yield ledger
            return _finish_root(sendbuf, recvbuf)

        rel = tree.relative_rank(me, root, size)
        shape = self.rank.tree_shape_for(nbytes)
        if self._heal and steps is not None:
            self._refuse_off_tree(steps, shape, size, root, rel)
        steps = own_steps(self.rank, comm, root, nbytes, segments,
                          ab_reduce_rank_steps, steps)
        instance = self.instances.next(comm)
        ledger.charge(self.costs.tree_setup_us, "mpi")
        root_world = comm.world_rank(root)
        width = 1
        if segments:
            self.pipeline.stats.pipelined_reduces += 1
            width = self.node.pipeline_params_for(
                nbytes).max_inflight_segments

        if rel == 0:
            # The root cannot bypass: MPI_Reduce must return the full result
            # (paper Sec. II).  Children's AB packets are routed to the
            # default matching path by the hook.
            self.stats.root_reduces += 1
            if not segments:
                yield ledger
                result = yield from reduce_nab(
                    self.rank, sendbuf, op, root, comm, recvbuf, steps=steps)
                return result
            # Segmented, the root still benefits: it folds segment k while
            # its children are combining k+1, instead of waiting for whole
            # messages to be staged at every level below.
            result = yield from reduce_steps(
                self.rank, comm, steps, sendbuf, op, recvbuf, ledger,
                segments=segments,
                on_fold=self.pipeline.root_fold_hook(comm, instance))
            return result

        flat = np.ascontiguousarray(sendbuf).reshape(-1)
        if not segments:
            segments = [Segment(-1, 0, flat.size, flat.itemsize)]
        neighbors = self.neighbors(comm, shape, root, rel, instance, steps)
        parent_world, children_world = neighbors
        if not children_world:
            # Leaf — by tree position, or because every subtree below this
            # rank crashed: AB-framed eager sends to the parent, segments
            # streamed back-to-back; nothing to wait for (paper: leaves
            # need no optimization, Sec. II).
            self.stats.leaf_sends += 1
            for s in segments:
                self._emit(flat[s.offset:s.offset + s.count], parent_world,
                           comm.coll_context, root_world, instance, s.index,
                           ledger)
            yield ledger
            return None

        # ----- internal node: the Fig. 3 flow -------------------------
        self.stats.ab_reduces += 1
        progress = self.rank.progress
        # Everything from here to the exit is "progress underway": signals
        # are explicitly disabled, and any child folded in during this span
        # counts as synchronously processed.
        progress.active_depth += 1
        self._sync_depth += 1
        try:
            # "Disable signals": we are about to make progress explicitly.
            # (Skipped while the AB broadcast is armed — its asynchronous
            # traffic must stay signal-driven.)
            if self.bcast is None:
                self.nic.disable_signals(ledger)

            # One staging copy for the whole message; each segment's
            # descriptor accumulates into its disjoint slice.
            staging = np.array(flat, copy=True)
            ledger.charge(self.costs.copy_us(staging.nbytes), "copy")
            st = _Window(segments, staging, comm, shape, root, rel, instance,
                         op, width, neighbors)
            self._advance(st, ledger)
            yield ledger

            # Walk/poll with the exit-delay window (Sec. IV-E); segments
            # still open at the deadline complete asynchronously, each one
            # pulling the next through ``on_complete`` — full bypass.
            deadline = self.sim.now + exit_delay_window(self.params, size)
            if not st.done.fired:
                caught = yield from progress.spin(st.done, deadline)
                if caught:
                    self.stats.window_catches += 1
                else:
                    self.stats.window_expires += 1
        finally:
            progress.active_depth -= 1
            self._sync_depth -= 1

        # Exit: enable signals iff any descriptor remains outstanding
        # (ours or an older one) — Fig. 3 bottom-left diamond.
        exit_ledger = Ledger()
        if not self.descriptors.empty or self.bcast is not None:
            self.nic.enable_signals(exit_ledger)
        if self.monitor is not None:
            self.monitor.on_reduce_exit(self.rank.rank, self.sim.now)
        if exit_ledger.total > 0.0:
            yield exit_ledger
        return None

    def neighbors(self, comm: Communicator, shape, root: int, rel: int,
                  instance: int, steps: Sequence = ()
                  ) -> tuple[Optional[int], list[int]]:
        """``(parent_world, children_world)`` of this rank (relative rank
        ``rel``) in the reduce tree — the parent is None at the root.

        On a healthy run they are read off the rank's own ``steps``.  With
        healing armed (repro.faults) they come from the ``shape`` tree —
        which the steps follow, see :meth:`_refuse_off_tree` — because
        healing must keep re-routing mid-pipeline: crashed subtrees are
        replaced by their live fringe, and the parent by its nearest live
        ancestor, so the healed tree spans exactly the live ranks."""
        size = comm.size
        if self._heal:
            parent_world = (None if rel == 0 else self._live_parent_world(
                comm, shape, root, size, rel, instance))
            children_world, healed = self._live_fringe(
                comm, shape, root, size, shape.children(rel, size))
            if healed:
                self.stats.subtrees_healed += healed
                self._report_fault("subtree_healed", instance=instance,
                                   healed=healed)
            return parent_world, children_world
        parent, kids = reduce_neighbors(steps)
        return (None if parent is None else comm.world_rank(parent),
                [comm.world_rank(c) for c in kids])

    # ------------------------------------------------------------------
    # window machinery (internal nodes)
    # ------------------------------------------------------------------
    def _advance(self, st: _Window, ledger: Ledger) -> None:
        """Open descriptors until the window is full or segments run out;
        the window is done once they have and none is left open."""
        if st.advancing:
            return
        st.advancing = True
        nseg = len(st.segments)
        try:
            while st.open < st.width and st.next_seg < nseg:
                self._push_segment(st, ledger)
        finally:
            st.advancing = False
        if st.open == 0 and st.next_seg == nseg:
            st.done.fire()

    def _push_segment(self, st: _Window, ledger: Ledger) -> None:
        s = st.segments[st.next_seg]
        st.next_seg += 1
        comm = st.comm
        root_world = comm.world_rank(st.root)
        if self._heal and s.index >= 0:
            # Heal-aware neighbors at *push* time: a subtree healed while
            # earlier segments were in flight re-parents the remaining
            # ones.  (A whole message is pushed in the instant it was
            # routed, so the entry derivation stands.)
            st.neighbors = self.neighbors(comm, st.shape, st.root, st.rel,
                                          st.instance)
        parent_world, children_world = st.neighbors
        acc = st.staging[s.offset:s.offset + s.count]
        if not children_world:
            # Every subtree below crashed mid-pipeline: degenerate to a
            # leaf-style stream for the remaining segments.
            self._emit(acc, parent_world, comm.coll_context, root_world,
                       st.instance, s.index, ledger)
            return
        desc = ReduceDescriptor(
            context_id=comm.coll_context, root_world=root_world,
            instance=st.instance, parent_world=parent_world,
            children_world=children_world, op=st.op, acc=acc,
            created_at=self.sim.now,
            comm=comm, shape=st.shape, root=st.root, size=comm.size,
            rel=st.rel, seg=s.index, nseg=len(st.segments),
            on_complete=lambda d, lg, _st=st: self._segment_done(_st, lg))
        ledger.charge(self.costs.ab_descriptor_us, "descriptor")
        self.descriptors.push(desc)
        st.open += 1
        if s.index >= 0:
            stats = self.pipeline.stats
            stats.inflight_hwm = max(stats.inflight_hwm, st.open)
        if self._timeout_us > 0.0:
            # Recovery timer (repro.faults): if children are still
            # pending when it fires, progress is forced, crashed
            # subtrees are healed, and after the retry budget the
            # partial sum is propagated (reported via INV-FAULT).
            self._arm_timeout(desc, 1)
        # Early arrivals — sent before this call, or stalled while the
        # window was full — already sit in the AB unexpected queue: consume
        # them directly (their only copy already happened on arrival).  May
        # complete the descriptor immediately and re-enter _advance via
        # on_complete.
        self._consume_unexpected(desc, ledger)

    def _segment_done(self, st: _Window, ledger: Ledger) -> None:
        """``on_complete`` of a window descriptor: slide the window."""
        st.open -= 1
        self._advance(st, ledger)

    def _emit(self, data: np.ndarray, dst_world: int, context_id: int,
              root_world: int, instance: int, seg: int,
              ledger: Ledger) -> None:
        """One AB-framed eager send up the tree (``seg == -1``: a whole
        message)."""
        header = AbHeader(root=root_world, instance=instance, kind="reduce",
                          seg=seg)
        self.rank.progress.start_send(data, dst_world, TAG_REDUCE,
                                      context_id, ledger, ab=header)
        if seg >= 0:
            if self.pipeline is not None:
                self.pipeline.stats.segments_sent += 1
            if self.monitor is not None:
                self.monitor.on_segment_emit(
                    self.rank.rank, dst_world, context_id, instance, seg,
                    self.sim.now)

    # ==================================================================
    # role 2: the progress-engine pre-processing hook (Fig. 4)
    # ==================================================================
    def preprocess(self, env: Envelope, ledger: Ledger) -> bool:
        """Examine one dequeued packet; True if consumed here."""
        header = env.ab
        if header is None:
            return False
        if header.kind != "reduce":
            if header.kind != "bcast" or self.bcast is None:
                raise AbProtocolError(f"no handler for AB kind {header.kind!r}")
            return self.bcast.preprocess(env, ledger)
        if header.root == self.rank.rank:
            # Fig. 4 "Root?" diamond: this rank roots the instance.  A
            # split-phase root's descriptor absorbs what it matches;
            # otherwise the packet is strictly synchronous and handled by
            # the default matching path.
            desc = self.descriptors.match(env.src, env.context_id,
                                          header.instance, header.seg)
            if desc is None:
                return False
            ledger.charge(self.costs.ab_descriptor_match_us, "ab")
            self._absorb(desc, env.src, env.data, ledger)
            return True

        ledger.charge(self.costs.ab_descriptor_match_us, "ab")
        desc = self.descriptors.match(env.src, env.context_id,
                                      header.instance, header.seg)
        if desc is None:
            key = (env.context_id, header.instance, header.seg, env.src)
            if key in self._stale:
                # The descriptor already abandoned this child
                # (timeout-recovery gave up on it): its late contribution
                # is dropped, not buffered — nothing will ever consume it.
                self._stale.discard(key)
                if self.pipeline is not None:
                    self.pipeline.stats.stale_segments_dropped += 1
                return True
            # Early (truly unexpected): one copy into the AB queue.
            data = np.array(env.data, copy=True)
            ledger.charge(self.costs.copy_us(env.nbytes), "copy")
            self.stats.ab_copies += 1
            self.stats.unexpected_one_copy += 1
            if self.params.reuse_mpich_queues:
                # Ablation: the rejected design buffers through MPICH's
                # non-blocking machinery — a second copy plus management.
                ledger.charge(self.costs.copy_us(env.nbytes), "copy")
                ledger.charge(self.costs.ab_reuse_mgmt_us, "ab")
                self.stats.ab_copies += 1
            self.unexpected.put(env.src, header, data, self.sim.now,
                                env.context_id)
            if header.seg >= 0 and self.pipeline is not None:
                # A segment the window wasn't ready for: the pipeline
                # stalled (copy paid instead of a zero-copy fold).
                self.pipeline.stats.pipeline_stalls += 1
            if self.monitor is not None:
                self.monitor.on_ab_message(
                    self.rank.rank, "unexpected",
                    2 if self.params.reuse_mpich_queues else 1,
                    self.params.reuse_mpich_queues, self.sim.now)
            return True

        # Expected or late: combined straight from the packet buffer —
        # zero host copies (100% copy reduction, Sec. V-C).
        self.stats.expected_zero_copy += 1
        if self.params.reuse_mpich_queues:
            ledger.charge(self.costs.copy_us(env.nbytes), "copy")
            ledger.charge(self.costs.ab_reuse_mgmt_us, "ab")
            self.stats.ab_copies += 1
        if self.monitor is not None:
            self.monitor.on_ab_message(
                self.rank.rank, "expected",
                1 if self.params.reuse_mpich_queues else 0,
                self.params.reuse_mpich_queues, self.sim.now)
        self._absorb(desc, env.src, env.data, ledger)
        return True

    # ==================================================================
    # role 3: absorption and asynchronous completion (Fig. 5)
    # ==================================================================
    def _absorb(self, desc: ReduceDescriptor, child_world: int,
                data: np.ndarray, ledger: Ledger) -> None:
        """Fold one child's contribution into the descriptor."""
        ledger.charge(self.costs.op_us(desc.acc.size), "op")
        desc.op.apply(desc.acc, data.reshape(desc.acc.shape))
        desc.mark_done(child_world)
        in_sync = self._sync_depth > 0
        if not in_sync:
            self.stats.children_async += 1
        if desc.seg >= 0:
            if self.pipeline is not None:
                self.pipeline.stats.segments_folded += 1
                if not in_sync:
                    self.pipeline.stats.segments_folded_async += 1
            if self.monitor is not None:
                self.monitor.on_segment_fold(
                    self.rank.rank, child_world, desc.context_id,
                    desc.instance, desc.seg, self.sim.now)
            if not desc.complete and desc.timeout_event is not None:
                # Stall-based recovery timer: a window descriptor's children
                # legitimately arrive a full sibling-stream apart (the
                # parent's RX port serializes every child's segments), so
                # age-based expiry would abandon live children.  Each fold
                # is progress — restart the timer and the retry budget.
                self.sim.cancel(desc.timeout_event)
                self._arm_timeout(desc, 1)
        if desc.complete:
            self._finish(desc, ledger, completed_async=not in_sync)

    def _finish(self, desc: ReduceDescriptor, ledger: Ledger,
                completed_async: bool) -> None:
        """All children handled: send to the parent (if any), dequeue,
        idle the NIC."""
        if (self._heal and desc.rel is not None
                and self._crashed(desc.parent_world)):
            # The parent crashed after this descriptor was built: climb the
            # tree to the nearest live ancestor.
            desc.parent_world = self._live_parent_world(
                desc.comm, desc.shape, desc.root, desc.size, desc.rel,
                desc.instance, desc.parent_world)
        if desc.parent_world is not None:
            self._emit(desc.acc, desc.parent_world, desc.context_id,
                       desc.root_world, desc.instance, desc.seg, ledger)
        self.descriptors.remove(desc)
        if desc.timeout_event is not None:
            self.sim.cancel(desc.timeout_event)
            desc.timeout_event = None
        if completed_async:
            self.stats.descriptors_completed_async += 1
        else:
            self.stats.descriptors_completed_sync += 1
        tracer = self.node.tracer
        if tracer.enabled:
            # The descriptor's one trace record: its span, stamped at the
            # end and keyed on the identity packets match on.
            tracer.emit("ab.descriptor", node=self.rank.rank,
                        context=desc.context_id, instance=desc.instance,
                        seg=desc.seg, nseg=desc.nseg, start=desc.created_at,
                        mode="async" if completed_async else "sync")
        callback = desc.on_complete
        if callback is not None:
            # Window advance: runs before the queue-drained check below so
            # a callback that opens the next segment's descriptor keeps
            # signals armed without a disable/enable flap.
            desc.on_complete = None
            callback(desc, ledger)
        self._idle_if_drained(ledger)

    def _consume_unexpected(self, desc: ReduceDescriptor,
                            ledger: Ledger) -> None:
        """Fold in early arrivals buffered before the descriptor existed.

        Entries are consumed directly from the AB unexpected queue — the
        copy they already paid on arrival is their only one (Sec. V-B).
        """
        for child in desc.pending_children():
            entry = self.unexpected.take_for(child, desc.instance, desc.seg,
                                             desc.context_id)
            if entry is None:
                continue
            ledger.charge(self.costs.ab_descriptor_match_us, "ab")
            self.stats.children_from_unexpected += 1
            self._absorb(desc, child, entry.data, ledger)
            if desc.removed:
                break

    # ==================================================================
    # fault recovery (repro.faults: descriptor timeouts + tree healing)
    # ==================================================================
    def _crashed(self, world_rank: int) -> bool:
        oracle = self._crash_oracle
        return oracle is not None and oracle(world_rank, self.sim.now)

    @staticmethod
    def _refuse_off_tree(steps: Sequence, shape, size: int, root: int,
                         rel: int) -> None:
        """Healing needs the whole tree, which only the config ``shape``
        has: a caller's ``steps`` whose neighbours are not this rank's
        healthy family in it would be silently overridden by
        :meth:`neighbors` while the root walked them."""
        healthy = (
            None if rel == 0
            else tree.absolute_rank(shape.parent(rel, size), root, size),
            tuple(tree.absolute_rank(c, root, size)
                  for c in shape.children(rel, size)))
        if reduce_neighbors(steps) != healthy:
            raise ScheduleExecutionError(
                "tree healing re-routes along the configured %s tree, which "
                "its steps do not follow" % shape.name)

    def _live_parent_world(self, comm, shape, root: int, size: int, rel: int,
                           instance: int, known: Optional[int] = None) -> int:
        """World rank of ``rel``'s nearest live ancestor, climbing toward
        the root (rel 0, assumed live: the root never crashes in the
        supported fault model).  A re-route is counted when it is not
        ``known`` — the parent a descriptor was built with; by default the
        tree's own."""
        prel = shape.parent(rel, size)
        world = comm.world_rank(tree.absolute_rank(prel, root, size))
        if known is None:
            known = world
        while prel != 0 and self._crashed(world):
            prel = shape.parent(prel, size)
            world = comm.world_rank(tree.absolute_rank(prel, root, size))
        if world != known:
            self.stats.sends_rerouted += 1
            self._report_fault("send_rerouted", instance=instance,
                               parent=world)
        return world

    def _live_fringe(self, comm, shape, root: int, size: int,
                     rels) -> tuple[list[int], int]:
        """Expand ``rels`` into the live fringe: a live rank stands for its
        subtree; a crashed rank is replaced by the live fringe of its own
        children (deterministic depth-first, combine order preserved).
        Returns ``(world_ranks, crashed_nodes_bypassed)``."""
        worlds: list[int] = []
        healed = 0
        for r in rels:
            world = comm.world_rank(tree.absolute_rank(r, root, size))
            if not self._crashed(world):
                worlds.append(world)
                continue
            healed += 1
            sub, sub_healed = self._live_fringe(
                comm, shape, root, size, shape.children(r, size))
            worlds.extend(sub)
            healed += sub_healed
        return worlds, healed

    def _arm_timeout(self, desc: ReduceDescriptor, attempt: int) -> None:
        """(Re)start ``desc``'s recovery timer.  TIMER class: a timeout due
        exactly when the completing contribution lands observes the
        completion (and is cancelled) rather than racing it."""
        desc.timeout_event = self.sim.schedule(
            self._timeout_us, self._on_descriptor_timeout, desc, attempt,
            priority=PRIORITY_TIMER)

    def _on_descriptor_timeout(self, desc: ReduceDescriptor,
                               attempt: int) -> None:
        desc.timeout_event = None
        if desc.removed or self.node.cpu.crashed:
            return
        self.stats.descriptors_timed_out += 1
        self.node.cpu.run_handler(
            lambda ledger: self._timeout_recover(desc, attempt, ledger))

    def _timeout_recover(self, desc: ReduceDescriptor, attempt: int,
                         ledger: Ledger) -> None:
        """Timer body: force progress, heal crashed subtrees, re-arm, and
        after the retry budget abandon the stragglers (partial sum,
        honestly reported — availability over completeness)."""
        if desc.removed:
            return
        progress = self.rank.progress
        if progress.active_depth == 0:
            # Safe to drain here; if a blocking call is already spinning
            # (active_depth > 0) it is making progress on our behalf.
            progress.active_depth += 1
            try:
                progress.drain(ledger)
            finally:
                progress.active_depth -= 1
        if desc.removed:
            return
        if self._heal:
            self._heal_descriptor(desc, ledger)
            if desc.removed:
                return
        if attempt < self._timeout_retries:
            self._arm_timeout(desc, attempt + 1)
            return
        for child in desc.pending_children():
            desc.mark_done(child)
            # Purge anything this child already delivered for the
            # descriptor, and remember the key so a straggling late packet
            # is discarded instead of stranding in the unexpected queue.
            self.unexpected.take_for(child, desc.instance, desc.seg,
                                     desc.context_id)
            self._stale.add((desc.context_id, desc.instance, desc.seg, child))
            self._report_fault("child_abandoned", instance=desc.instance,
                               child=child)
        self._finish(desc, ledger, completed_async=True)

    def _heal_descriptor(self, desc: ReduceDescriptor,
                         ledger: Ledger) -> None:
        """Reassign every crashed pending child's subtree (tree_heal): the
        crashed child is dropped and its live descendants are adopted as
        direct children of this rank."""
        if desc.comm is None:
            return
        for child in list(desc.pending_children()):
            if not self._crashed(child):
                continue
            crel = tree.relative_rank(desc.comm.rank_of_world(child),
                                      desc.root, desc.size)
            adopted, nested = self._live_fringe(
                desc.comm, desc.shape, desc.root, desc.size,
                desc.shape.children(crel, desc.size))
            desc.adopt(child, adopted)
            ledger.charge(self.costs.ab_descriptor_us, "descriptor")
            self.stats.subtrees_healed += 1 + nested
            self._report_fault("subtree_healed", instance=desc.instance,
                               child=child, adopted=len(adopted))
        if desc.complete:
            self._finish(desc, ledger, completed_async=True)
            return
        self._consume_unexpected(desc, ledger)

    def _report_fault(self, kind: str, **context) -> None:
        if self.monitor is not None:
            self.monitor.on_fault_report(self.rank.rank, kind,
                                         self.sim.now, **context)
