"""Split-phase (non-blocking) reduction — the paper's Sec. II observation
that even the root "would enable optimization ... a split-phase
implementation", made concrete.  This is the 2003-era precursor of
MPI-3's ``MPI_Ireduce``.

* ``start()`` initiates the reduction and returns immediately on every
  rank.  Non-root ranks reuse the application-bypass machinery verbatim
  (their synchronous component already returns without blocking).  The
  root — which the blocking API forces to spin — instead queues one
  parentless reduce descriptor per segment (one ``seg == -1`` descriptor
  for a whole message), and the engine's progress hook completes them
  like any other (:mod:`repro.core.engine`, Fig. 5).
* ``wait(handle)`` blocks until the local part is done and, at the root,
  returns the full result.

NIC signals stay enabled while those descriptors are outstanding — the
engine's one signal rule — so completion needs no application
involvement.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from ..mpich.collectives.walk import own_steps
from ..mpich.communicator import Communicator
from ..mpich.message import TAG_REDUCE
from ..mpich.operations import Op
from ..pipeline.segmenter import Segment
from ..schedule.lower import reduce_rank_steps
from ..sim.process import Ledger, Trigger
from .descriptor import ReduceDescriptor
from .engine import AbEngine


class ReduceHandle:
    """Completion handle returned by :meth:`SplitPhaseReduce.start`."""

    __slots__ = ("trigger",)

    def __init__(self):
        self.trigger = Trigger()

    @property
    def result(self) -> Optional[np.ndarray]:
        return self.trigger.value


class SplitPhaseReduce:
    """Per-rank split-phase reduce: ``start``/``wait`` over the rank's AB
    engine, which holds every outstanding root's state."""

    def __init__(self, engine: AbEngine):
        self.engine = engine

    def start(self, sendbuf: np.ndarray, op: Op, root: int,
              comm: Communicator) -> Generator:
        """Initiate; returns a :class:`ReduceHandle` without blocking.
        A rendezvous-sized payload raises ``ValueError`` on every rank."""
        engine = self.engine
        costs = engine.costs
        rank = engine.rank
        sendbuf = np.asarray(sendbuf)
        # The decision every rank makes alike; a rendezvous-sized payload
        # has no AB path, and the root's descriptors would never complete.
        segments = engine.route(sendbuf, comm.size)
        if segments is None:
            raise ValueError(f"split-phase reduce of {sendbuf.nbytes} bytes "
                             "is rendezvous-sized: no application bypass")
        handle = ReduceHandle()
        if comm.rank_of_world(rank.rank) != root:
            # The ordinary AB path already returns without blocking for
            # non-root ranks; the eager snapshot makes the send buffer
            # immediately reusable.
            yield from engine.reduce(sendbuf, op, root, comm)
            handle.trigger.fire(None)
            return handle

        instance = engine.instances.next(comm)
        ledger = Ledger()
        ledger.charge(costs.call_overhead_us, "mpi")
        ledger.charge(costs.ab_decision_us, "ab")
        ledger.charge(costs.tree_setup_us, "mpi")

        size = comm.size
        if size == 1:
            yield ledger
            handle.trigger.fire(np.array(sendbuf, copy=True))
            return handle

        acc = np.array(sendbuf, copy=True)
        ledger.charge(costs.copy_us(acc.nbytes), "copy")
        flat = acc.reshape(-1)
        # The tree is the one the non-root ranks send along
        # (message-size-aware, healed when faults are armed).
        _, children = engine.neighbors(
            comm, rank.tree_shape_for(sendbuf.nbytes), root, 0, instance,
            own_steps(rank, comm, root, sendbuf.nbytes, segments,
                      reduce_rank_steps))
        segments = segments or [Segment(-1, 0, flat.size, flat.itemsize)]
        remaining = len(segments)

        def on_complete(desc, lg) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                handle.trigger.fire(acc)

        # Not billed ``ab_descriptor_us`` and no recovery timer: the root
        # has no recovery layer to run one.  Signals go on only once the
        # descriptors that justify them (INV-SIGNAL) are queued.
        for s in segments:
            engine.descriptors.push(ReduceDescriptor(
                context_id=comm.coll_context, root_world=rank.rank,
                instance=instance, parent_world=None,
                children_world=children, op=op,
                acc=flat[s.offset:s.offset + s.count],
                created_at=engine.sim.now, seg=s.index, nseg=len(segments),
                on_complete=on_complete))
        if not engine.nic.signals_enabled:
            engine.nic.enable_signals(Ledger())

        # Children that raced ahead of this call landed in the *default*
        # MPICH unexpected queue (the hook routes root-bound packets there
        # while no descriptor matches them): fold each in through the
        # hook's own root rule, child by child in arrival order.
        queue = rank.progress.matching.unexpected
        for child in sorted(children):
            for env in [e for e in queue
                        if e.matches(child, TAG_REDUCE, comm.coll_context)]:
                if engine.preprocess(env, ledger):
                    queue.remove(env)
        yield ledger
        return handle

    def wait(self, handle: ReduceHandle) -> Generator:
        """Block until locally complete; root returns the result array."""
        yield from self.engine.rank.progress.spin(handle.trigger)
        return handle.result
