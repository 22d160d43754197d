"""Application-bypass broadcast (the paper's companion work, ref. [8]:
Buntinas, Panda & Brightwell, "Application-Bypass Broadcast in MPICH over
GM", CCGrid 2003).

A stand-alone broadcast travels down the configured tree; the down phase
of a schedule (the pipelined allreduce) travels where each rank's own
``BcastStep`` sends point (:meth:`AbBroadcast.follow`).
The bypass opportunity is the *forwarding*: when an internal node's copy of
the data arrives, the progress hook forwards it to the node's children
immediately — whether or not the application has called ``MPI_Bcast`` yet —
so a skewed (late) parent never delays its entire subtree.  The local
``bcast`` call then either finds the data already buffered (one copy) or
blocks for it.

Because broadcast data can arrive before the application announces any
interest, a rank's AB broadcast keeps its NIC signals armed for the rest of
the run (:attr:`repro.core.engine.AbEngine.bcast`); a rank has at most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from ..errors import AbProtocolError
from ..mpich.collectives.walk import own_steps
from ..mpich.communicator import Communicator, InstanceCounter
from ..mpich.datatypes import DOUBLE, Datatype
from ..mpich.message import TAG_BCAST, AbHeader, Envelope
from ..schedule.ir import bcast_children
from ..schedule.lower import bcast_rank_steps
from ..sim.process import Ledger, Trigger
from .engine import AbEngine

KIND = "bcast"


@dataclass(slots=True)
class AbBroadcastStats:
    forwards: int = 0
    early_arrivals: int = 0   # data arrived before the local call


class AbBroadcast:
    """Per-rank application-bypass broadcast extension."""

    def __init__(self, engine: AbEngine):
        if engine.bcast is not None:
            raise AbProtocolError(
                f"rank {engine.rank.rank} already has an AB broadcast")
        self.engine = engine
        self.costs = engine.costs
        self.stats = AbBroadcastStats()
        self._comms: dict[int, Communicator] = {}
        #: Broadcasts that follow a schedule instead of the configured
        #: tree: (ctx, inst) -> the peers this rank sends the data on to.
        self._scheduled: dict[tuple[int, int], Sequence[int]] = {}
        self._instances = InstanceCounter()
        #: Data that arrived before the local bcast call: (ctx, inst) -> array.
        self._received: dict[tuple[int, int], np.ndarray] = {}
        #: Local calls blocked for data: (ctx, inst) -> trigger.
        self._waiting: dict[tuple[int, int], Trigger] = {}
        engine.bcast = self
        if not engine.nic.signals_enabled:
            engine.nic.enable_signals(Ledger())

    def register_comm(self, comm: Communicator) -> None:
        """Make a communicator's tree known before any data can arrive
        (collective: every participating rank must register it)."""
        self._comms[comm.coll_context] = comm

    def follow(self, comm: Communicator, forward_to: Sequence[int],
               broadcasts: int) -> None:
        """Register ``comm`` and send this rank's next ``broadcasts``
        broadcasts on it on to ``forward_to`` — the peers of the caller's
        own ``BcastStep`` sends, as communicator ranks — instead of to its
        children in the configured tree.  Collective, and it must precede
        the arrival of the first of them (DESIGN.md §15 argues why calling
        it on allreduce entry does)."""
        self.register_comm(comm)
        first = self._instances.peek(comm)
        for instance in range(first, first + broadcasts):
            self._scheduled[comm.coll_context, instance] = forward_to

    def _children(self, comm: Communicator, instance: int, root: int,
                  nbytes: int) -> Sequence[int]:
        """Where this rank sends broadcast ``instance`` from ``root`` on
        to, deepest subtree first (for the default binomial shape this is
        the original descending-mask walk, bit for bit).  Asked once per
        broadcast: by the root's call, or by the hook that forwards."""
        forward_to = self._scheduled.pop((comm.coll_context, instance), None)
        if forward_to is None:
            forward_to = bcast_children(own_steps(
                self.engine.rank, comm, root, nbytes, None, bcast_rank_steps))
        return forward_to

    # ------------------------------------------------------------------
    # hook side (runs inside the progress engine, sync or async)
    # ------------------------------------------------------------------
    def preprocess(self, env: Envelope, ledger: Ledger) -> bool:
        header = env.ab
        comm = self._comms.get(env.context_id)
        if comm is None:
            raise AbProtocolError(
                f"AB bcast packet for unregistered context {env.context_id}")
        self._forward(env, header, comm, ledger)
        key = (env.context_id, header.instance)
        trigger = self._waiting.pop(key, None)
        data = np.array(env.data, copy=True)
        ledger.charge(self.costs.copy_us(env.nbytes), "copy")
        if trigger is not None:
            trigger.fire(data)
        else:
            self.stats.early_arrivals += 1
            self._received[key] = data
        return True

    def _forward(self, env: Envelope, header: AbHeader, comm: Communicator,
                 ledger: Ledger) -> None:
        """Send the payload down to this node's bcast-tree children *now*."""
        if header.root == self.engine.rank.rank:
            raise AbProtocolError("bcast root received its own broadcast")
        root = comm.rank_of_world(header.root)
        for child in self._children(comm, header.instance, root,
                                    env.nbytes):
            self.engine.rank.progress.start_send(
                env.data, comm.world_rank(child), TAG_BCAST,
                comm.coll_context, ledger, ab=header)
            self.stats.forwards += 1

    # ------------------------------------------------------------------
    # application side
    # ------------------------------------------------------------------
    def bcast(self, data: Optional[np.ndarray], root: int,
              comm: Communicator, *, count: Optional[int] = None,
              dtype: Optional[Datatype] = None) -> Generator:
        """Application-bypass ``MPI_Bcast``; returns the array everywhere."""
        if comm.coll_context not in self._comms:
            raise AbProtocolError("register_comm(comm) must precede bcast")
        me = comm.rank_of_world(self.engine.rank.rank)
        instance = self._instances.next(comm)
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        ledger.charge(self.costs.ab_decision_us, "ab")

        if me == root:
            if data is None:
                raise AbProtocolError("bcast root must supply data")
            buf = np.array(data, copy=True)
            header = AbHeader(root=comm.world_rank(root), instance=instance,
                              kind=KIND)
            for child in self._children(comm, instance, root, buf.nbytes):
                self.engine.rank.progress.start_send(
                    buf, comm.world_rank(child), TAG_BCAST,
                    comm.coll_context, ledger, ab=header)
            yield ledger
            return buf

        key = (comm.coll_context, instance)
        stored = self._received.pop(key, None)
        if stored is not None:
            yield ledger
            return self._deliver(stored, data, count, dtype)

        # Data not here yet: block (polling) until the hook hands it over.
        trigger = Trigger()
        self._waiting[key] = trigger
        yield ledger
        yield from self.engine.rank.progress.spin(trigger)
        return self._deliver(trigger.value, data, count, dtype)

    def _deliver(self, payload: np.ndarray, data: Optional[np.ndarray],
                 count: Optional[int], dtype: Optional[Datatype]) -> np.ndarray:
        if data is not None:
            buf = np.asarray(data)
            buf.reshape(-1)[: payload.size] = payload.reshape(-1)
            return buf
        if count is not None:
            buf = (dtype or DOUBLE).buffer(count)
            buf.reshape(-1)[: payload.size] = payload.reshape(-1)
            return buf
        return payload
