"""Split-phase (non-blocking) reduction — the paper's Sec. II observation
that even the root "would enable optimization ... a split-phase
implementation", made concrete.  This is the 2003-era precursor of
MPI-3's ``MPI_Ireduce``.

* ``start()`` initiates the reduction and returns immediately on every
  rank.  Non-root ranks reuse the application-bypass machinery verbatim
  (their synchronous component already returns without blocking).  The
  root — which the blocking API forces to spin — instead registers a
  *root state* (accumulator + pending children) and lets the progress
  hook / NIC signals complete it in the background.
* ``wait(handle)`` blocks until the local part is done and, at the root,
  returns the full result.

The root keeps NIC signals pinned while any split-phase reduction it
roots is outstanding, so completion needs no application involvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

import numpy as np

from ..errors import AbProtocolError
from ..mpich.collectives.walk import own_steps
from ..mpich.communicator import Communicator
from ..mpich.message import TAG_REDUCE, Envelope, TransferKind
from ..mpich.operations import Op
from ..schedule.lower import reduce_rank_steps
from ..sim.process import Ledger, Trigger
from .engine import AbEngine

EXT_KEY = "ireduce_root"


class ReduceHandle:
    """Completion handle returned by :meth:`SplitPhaseReduce.start`."""

    __slots__ = ("comm", "instance", "trigger")

    def __init__(self, comm: Communicator, instance: int):
        self.comm = comm
        self.instance = instance
        self.trigger = Trigger()

    @property
    def result(self) -> Optional[np.ndarray]:
        return self.trigger.value


class _RootState:
    __slots__ = ("acc", "pending", "op", "handle", "segments")

    def __init__(self, acc: np.ndarray, pending: set, op: Op,
                 handle: ReduceHandle, segments=None):
        self.acc = acc
        #: Outstanding contributions: child world ranks (whole-message), or
        #: ``(child, seg)`` pairs when the reduction is segmented
        #: (repro.pipeline) — each child then contributes once per segment.
        self.pending = pending
        self.op = op
        self.handle = handle
        #: Segment plan, or None for a whole-message reduction.
        self.segments = segments

    def child_outstanding(self, child: int) -> bool:
        if self.segments is None:
            return child in self.pending
        return any(key[0] == child for key in self.pending)


@dataclass(slots=True)
class SplitPhaseStats:
    async_root_children: int = 0


class SplitPhaseReduce:
    """Per-rank split-phase reduce extension."""

    def __init__(self, engine: AbEngine):
        self.engine = engine
        self.costs = engine.costs
        self.stats = SplitPhaseStats()
        self._states: dict[tuple[int, int], _RootState] = {}
        engine.extensions[EXT_KEY] = self

    # ------------------------------------------------------------------
    def start(self, sendbuf: np.ndarray, op: Op, root: int,
              comm: Communicator) -> Generator:
        """Initiate; returns a :class:`ReduceHandle` without blocking."""
        sendbuf = np.asarray(sendbuf)
        me = comm.rank_of_world(self.engine.rank.rank)
        if me != root:
            # The ordinary AB path already returns without blocking for
            # non-root ranks; the eager snapshot makes the send buffer
            # immediately reusable.
            yield from self.engine.reduce(sendbuf, op, root, comm)
            handle = ReduceHandle(comm, -1)
            handle.trigger.fire(None)
            return handle

        instance = self.engine.instances.next(comm)
        handle = ReduceHandle(comm, instance)
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        ledger.charge(self.costs.ab_decision_us, "ab")
        ledger.charge(self.costs.tree_setup_us, "mpi")

        size = comm.size
        if size == 1:
            yield ledger
            handle.trigger.fire(np.array(sendbuf, copy=True))
            return handle

        acc = np.array(sendbuf, copy=True)
        ledger.charge(self.costs.copy_us(acc.nbytes), "copy")
        # Segmented reduction (repro.pipeline): non-root ranks stream
        # per-segment contributions, so the root state tracks (child, seg)
        # pairs and folds each arrival into its slice.  The routing
        # decision uses only (config, buffer geometry), so it matches the
        # one every non-root rank makes.
        segments = self.engine.route(sendbuf, size) or None
        # The tree every non-root rank sends along: message-size-aware
        # shape, healed when faults are armed.
        rank = self.engine.rank
        _, children = self.engine.neighbors(
            comm, rank.tree_shape_for(sendbuf.nbytes), root, 0, instance,
            own_steps(rank, comm, root, sendbuf.nbytes, segments,
                      reduce_rank_steps))
        if segments is not None:
            pending = {(c, s.index) for c in children for s in segments}
        else:
            pending = set(children)
        state = _RootState(acc, pending, op, handle, segments=segments)
        key = (comm.coll_context, instance)
        self._states[key] = state
        self.engine.pin_signals()

        # Children that raced ahead of this call landed in the *default*
        # MPICH unexpected queue (the hook routes root-bound packets there
        # when no root state is registered).  Fold them in now — FIFO per
        # child guarantees the oldest entries are ours, in segment order.
        matching = self.engine.rank.progress.matching
        for child in sorted(children):
            while state.child_outstanding(child):
                env = matching.take_unexpected(child, TAG_REDUCE,
                                               comm.coll_context)
                if env is None:
                    break
                if env.ab is None or env.ab.instance != instance:
                    raise AbProtocolError(
                        f"split-phase root found instance "
                        f"{getattr(env.ab, 'instance', None)} in the "
                        f"unexpected queue, expected {instance}")
                ledger.charge(self.costs.ab_descriptor_match_us, "ab")
                self._fold(state, env, ledger)
        yield ledger
        return handle

    def wait(self, handle: ReduceHandle) -> Generator:
        """Block until locally complete; root returns the result array."""
        yield from self.engine.rank.progress.spin(handle.trigger)
        return handle.result

    # ------------------------------------------------------------------
    # called by AbEngine.preprocess for packets whose AB root is this rank
    # ------------------------------------------------------------------
    def try_absorb(self, env: Envelope, ledger: Ledger) -> bool:
        if env.kind is not TransferKind.EAGER or env.ab is None:
            return False
        key = (env.context_id, env.ab.instance)
        state = self._states.get(key)
        if state is None:
            return False
        ledger.charge(self.costs.ab_descriptor_match_us, "ab")
        self.stats.async_root_children += 1
        self._fold(state, env, ledger)
        return True

    def _fold(self, state: _RootState, env: Envelope,
              ledger: Ledger) -> None:
        seg = env.ab.seg if env.ab is not None else -1
        if state.segments is not None and seg >= 0:
            key = (env.src, seg)
            if key not in state.pending:
                raise AbProtocolError(
                    f"split-phase root got duplicate segment {seg} from "
                    f"child {env.src}")
            s = state.segments[seg]
            ledger.charge(self.costs.op_us(s.count), "op")
            flat = state.acc.reshape(-1)
            state.op.apply(flat[s.offset:s.offset + s.count],
                           env.data.reshape(-1)[:s.count])
            state.pending.discard(key)
            engine = self.engine
            if engine.monitor is not None:
                engine.monitor.on_segment_fold(
                    engine.rank.rank, env.src,
                    state.handle.comm.coll_context,
                    state.handle.instance, seg, self.engine.sim.now)
        else:
            if env.src not in state.pending:
                raise AbProtocolError(
                    f"split-phase root got duplicate child {env.src}")
            ledger.charge(self.costs.op_us(state.acc.size), "op")
            state.op.apply(state.acc, env.data.reshape(state.acc.shape))
            state.pending.discard(env.src)
        if not state.pending:
            key = (state.handle.comm.coll_context, state.handle.instance)
            del self._states[key]
            self.engine.unpin_signals(ledger)
            state.handle.trigger.fire(state.acc)

    @property
    def outstanding_roots(self) -> int:
        return len(self._states)
