"""NIC-based reduction — the paper's declared future work (Sec. VII):

    "Using NIC-based techniques, part or all of the operation may be
    performed on the NIC processor, as opposed to being performed on the
    host.  This frees the host processor for use in other computation,
    naturally bypassing the application."

following the companion line of work (refs. [10]: Buntinas/Panda/Sadayappan,
NIC-based barrier; [11]: Buntinas/Panda, "NIC-Based Reduction in Myrinet
Clusters: Is It Beneficial?").

Mechanics: every rank's contribution is handed to its own NIC once; the
LANai control programs combine partial results *in NIC SRAM* as
``NIC_COLLECTIVE`` packets climb the configured tree
(``MpiParams.tree_shape``).  Intermediate hosts are
never involved — no signals, no copies, no polling: their reduction CPU
cost is exactly the one hand-off.  The root's NIC DMAs the finished result
up to its host.

The trade-off ref. [11] examines falls out of the cost model: the LANai is
roughly an order of magnitude slower than the host at arithmetic
(``NicParams.nic_op_us_per_element``), so NIC-based reduction buys host-CPU
freedom at the price of latency that grows steeply with message size.  The
``extensions`` experiment claims that crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from ..errors import AbProtocolError
from ..mpich.communicator import Communicator, InstanceCounter
from ..mpich.message import AbHeader, Envelope, TransferKind
from ..mpich.operations import Op
from ..gm.packet import Packet, PacketType
from ..mpich.collectives.walk import own_steps
from ..schedule.ir import reduce_neighbors
from ..schedule.lower import reduce_rank_steps
from ..sim.process import Ledger

#: Base tag for root-side result delivery; instance number is added so
#: out-of-order completions across back-to-back reductions cannot cross.
TAG_NICRED_BASE = 2_000_000

KIND = "nicred"


@dataclass(slots=True, eq=False)
class _NicState:
    """Combining state for one reduction instance, resident in NIC SRAM."""

    context_id: int
    instance: int
    root_world: int
    parent_world: Optional[int]
    pending: set
    op: Optional[Op]
    acc: Optional[np.ndarray] = None
    #: Remote contributions that arrived before the local hand-off named
    #: the operation; folded as soon as it does.
    buffered: list = field(default_factory=list)


@dataclass(slots=True)
class NicReduceStats:
    nic_combines: int = 0


LOCAL = "local"


class NicReduceUnit:
    """The modified LANai control program for one rank's NIC."""

    def __init__(self, mpi_rank):
        self.rank = mpi_rank
        self.node = node = mpi_rank.node
        self.nic = node.nic
        self.sim = node.sim
        self._comms: dict[int, Communicator] = {}
        self._states: dict[tuple[int, int], _NicState] = {}
        #: When the LANai's combining ALU frees up (it is serial).
        self.busy_until = 0.0
        self.stats = NicReduceStats()
        node.nic.collective_unit = self

    def register_comm(self, comm: Communicator) -> None:
        self._comms[comm.coll_context] = comm

    # ------------------------------------------------------------------
    # NIC-side events
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        """A NIC_COLLECTIVE packet arrived from the wire."""
        env: Envelope = packet.payload
        if env.ab is None or env.ab.kind != KIND:
            raise AbProtocolError("NIC unit got a non-nicred packet")
        state = self._state_for(env.context_id, env.ab.instance, env.ab.root,
                                None, env.nbytes)
        self._fold(state, env.src, env.data)

    def contribute_local(self, context_id: int, instance: int,
                         root_world: int, op: Op, data: np.ndarray,
                         at: float) -> None:
        """The host handed its own contribution down (DMA already timed by
        the caller's offset in ``at``)."""
        self.sim.at(at, self._combine_local, context_id, instance,
                    root_world, op, np.array(data, copy=True))

    # ------------------------------------------------------------------
    def _state_for(self, context_id: int, instance: int, root_world: int,
                   op: Optional[Op], nbytes: int) -> _NicState:
        key = (context_id, instance)
        state = self._states.get(key)
        if state is not None:
            return state
        comm = self._comms.get(context_id)
        if comm is None:
            raise AbProtocolError(
                f"nicred packet for unregistered context {context_id}")
        parent, kids = reduce_neighbors(own_steps(
            self.rank, comm, comm.rank_of_world(root_world), nbytes, None,
            reduce_rank_steps))
        state = self._states[key] = _NicState(
            context_id, instance, root_world,
            None if parent is None else comm.world_rank(parent),
            {comm.world_rank(c) for c in kids} | {LOCAL}, op)
        return state

    def _combine_local(self, context_id: int, instance: int, root_world: int,
                       op: Op, data: np.ndarray) -> None:
        state = self._state_for(context_id, instance, root_world, op,
                                data.nbytes)
        if state.op is None:
            state.op = op
        self._fold(state, LOCAL, data)
        # The op is known now: fold anything that raced ahead of the host.
        while state.buffered:
            who, buffered = state.buffered.pop(0)
            self._fold(state, who, buffered)

    def _fold(self, state: _NicState, who, data: np.ndarray) -> None:
        if who not in state.pending:
            raise AbProtocolError(
                f"nicred duplicate contribution {who!r} for instance "
                f"{state.instance} at node {self.node.id}")
        if state.op is None and state.acc is not None:
            # Can't combine two operands before the local hand-off names
            # the operation: keep the payload in NIC SRAM for later.
            state.buffered.append((who, np.array(data, copy=True)))
            return
        # Serialize on the LANai ALU; arithmetic is slow on the NIC.
        cost = (self.nic.params.nic_op_us_per_element * data.size *
                self.node.spec.lanai_scale())
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + cost
        self.stats.nic_combines += 1
        if state.acc is None:
            state.acc = np.array(data, copy=True)
        else:
            state.op.apply(state.acc, data.reshape(state.acc.shape))
        state.pending.discard(who)
        if not state.pending:
            self.sim.at(self.busy_until, self._complete, state)

    def _complete(self, state: _NicState) -> None:
        del self._states[(state.context_id, state.instance)]
        header = AbHeader(root=state.root_world, instance=state.instance,
                          kind=KIND)
        if state.parent_world is not None:
            env = Envelope(src=self.node.id, dst=state.parent_world,
                           tag=TAG_NICRED_BASE + state.instance,
                           context_id=state.context_id,
                           kind=TransferKind.EAGER, data=state.acc,
                           nbytes=state.acc.nbytes, ab=header)
            packet = Packet(self.node.id, state.parent_world,
                            PacketType.NIC_COLLECTIVE, env.nbytes, env)
            self.nic.send(packet, launch_offset=0.0)
            return
        # Root: DMA the finished result up to the host as a plain eager
        # message the blocked root receive will match.
        env = Envelope(src=self.node.id, dst=self.node.id,
                       tag=TAG_NICRED_BASE + state.instance,
                       context_id=state.context_id,
                       kind=TransferKind.EAGER, data=state.acc,
                       nbytes=state.acc.nbytes, ab=None)
        packet = Packet(self.node.id, self.node.id, PacketType.EAGER,
                        env.nbytes, env)
        dma = (self.nic.params.dma_setup_us +
               env.nbytes / self.nic.dma_bytes_per_us)
        self.sim.schedule(dma, self.nic._rx_complete, packet)


class NicReduce:
    """Host-side API for NIC-based reduction (one per rank)."""

    def __init__(self, mpi_rank):
        self.rank = mpi_rank
        self.node = mpi_rank.node
        self.costs = mpi_rank.costs
        self.unit = NicReduceUnit(mpi_rank)
        self._instances = InstanceCounter()

    def register_comm(self, comm: Communicator) -> None:
        """Collective: every participating rank registers the communicator
        so its NIC can derive the tree before any packet arrives."""
        self.unit.register_comm(comm)

    def reduce(self, data: np.ndarray, op: Op, root: int,
               comm: Communicator) -> Generator:
        """NIC-based ``MPI_Reduce``: internal hosts pay one hand-off only."""
        data = np.asarray(data)
        me = comm.rank_of_world(self.rank.rank)
        if not (0 <= root < comm.size):
            raise ValueError(f"root {root} outside comm of size {comm.size}")
        instance = self._instances.next(comm)
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        # Host hand-off: doorbell plus DMA of the contribution into NIC
        # SRAM (charged to the host like any gm_send staging cost).
        ledger.charge(self.costs.host_send_overhead_us, "send")
        dma_us = (self.node.nic.params.dma_setup_us +
                  data.nbytes / self.node.spec.pci_bytes_per_us)
        self.unit.contribute_local(comm.coll_context, instance,
                                   comm.world_rank(root), op, data,
                                   self.node.sim.now + ledger.total + dma_us)
        if me != root:
            yield ledger
            return None
        buffer = np.empty_like(data)
        request = self.rank.progress.post_recv(
            buffer, self.rank.rank, TAG_NICRED_BASE + instance,
            comm.coll_context, ledger)
        yield ledger
        yield from self.rank.progress.wait(request)
        return buffer
