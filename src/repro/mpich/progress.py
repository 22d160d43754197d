"""The MPICH communication progress engine.

By default MPICH makes progress only when the application is inside an MPI
call (paper Sec. IV-A): blocking operations spin this engine until their
request completes, charging the spun wall-time to the host CPU — that is the
polling cost the application-bypass design eliminates for internal tree
nodes.

The engine also exposes the two integration points the paper adds:

* a **pre-processing hook** consulted for every dequeued packet before the
  default matching logic (Fig. 4, gray boxes) — the application-bypass
  reduction installs itself here;
* a **signal entry point** (:meth:`ProgressEngine.on_signal`): when the NIC
  raises a signal for an AB collective packet, this triggers a progress run
  outside any application MPI call.  If progress is already underway the
  signal is simply ignored (Fig. 4 note), and in that case its kernel
  overhead is *not* charged because the spinning interval already bills that
  wall time.

All matching/copy/rendezvous logic is written as *instantaneous* functions
that tally their would-be CPU cost on a :class:`~repro.sim.process.Ledger`.
Process-context callers then yield the ledger; signal-context
callers let the CPU's preemption machinery apply the cost.  This keeps a
single implementation for both execution contexts (the paper achieves the
same by routing both through the progress engine).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator, Optional, Protocol

import numpy as np

from ..errors import MatchError
from ..gm.packet import Packet, PacketType
from ..sim.process import Ledger, Trigger, WaitFor
from .matching import MatchingEngine, PostedRecv
from .message import AbHeader, Envelope, TransferKind
from .requests import Request, Status


class ProgressHook(Protocol):
    """Interface of the application-bypass pre-processing hook."""

    def preprocess(self, env: Envelope, ledger: Ledger) -> bool:
        """Return True if the packet was consumed by the hook."""
        ...


class _RndvSend:
    __slots__ = ("data", "request", "tag", "context_id")

    def __init__(self, data: np.ndarray, request: Request, tag: int,
                 context_id: int):
        self.data = data
        self.request = request
        self.tag = tag
        self.context_id = context_id


class _RndvRecv:
    __slots__ = ("posted", "registration")

    def __init__(self, posted: PostedRecv, registration):
        self.posted = posted
        self.registration = registration


@dataclass(slots=True)
class ProgressStats:
    drains: int = 0
    signals_ignored: int = 0
    signal_progress_runs: int = 0
    sends_eager: int = 0
    sends_rndv: int = 0
    send_copies: int = 0


_rndv_seq = itertools.count(1)


class ProgressEngine:
    """Per-rank progress engine bound to one node's NIC and cost table."""

    def __init__(self, node) -> None:
        self.node = node
        self.nic = node.nic
        self.costs = node.costs
        self.sim = node.sim
        self.matching = MatchingEngine()
        self.stats = ProgressStats()
        #: >0 while some blocking MPI call (or a signal-triggered run) is
        #: actively making progress on this rank.
        self.active_depth = 0
        self.hook: Optional[ProgressHook] = None
        self._rndv_sends: dict[int, _RndvSend] = {}
        self._rndv_recvs: dict[int, _RndvRecv] = {}
        node.nic.register_signal_handler(self.on_signal)

    # ------------------------------------------------------------------
    # instantaneous core: drain the NIC receive queue
    # ------------------------------------------------------------------
    def drain(self, ledger: Ledger) -> int:
        """Process every packet in the host receive queue; returns count."""
        self.stats.drains += 1
        handled = 0
        queue = self.nic.rx_queue
        hook = self.hook
        while queue:
            packet = self.nic.pop_rx()
            env: Envelope = packet.payload
            handled += 1
            if hook is not None:
                # The AB build checks every packet (constant added cost).
                ledger.charge(self.costs.ab_hook_us, "ab_hook")
                if hook.preprocess(env, ledger):
                    continue
            self._deliver(env, ledger)
        if handled == 0:
            ledger.charge(self.costs.poll_empty_us, "poll")
        return handled

    def _deliver(self, env: Envelope, ledger: Ledger) -> None:
        kind = env.kind
        if kind is TransferKind.EAGER:
            self._deliver_eager(env, ledger)
        elif kind is TransferKind.RNDV_RTS:
            self._deliver_rts(env, ledger)
        elif kind is TransferKind.RNDV_CTS:
            self._deliver_cts(env, ledger)
        elif kind is TransferKind.RNDV_DATA:
            self._deliver_rdata(env, ledger)
        else:  # pragma: no cover - enum is closed
            raise MatchError(f"unknown transfer kind {kind}")

    def _deliver_eager(self, env: Envelope, ledger: Ledger) -> None:
        ledger.charge(self.costs.match_us, "match")
        posted = self.matching.find_posted(env)
        if posted is not None:
            # Expected: one copy, packet buffer -> user buffer.
            if posted.buffer is not None and env.data is not None:
                self.matching.copy_payload(posted.buffer, env.data, env.nbytes)
                ledger.charge(self.costs.copy_us(env.nbytes), "copy")
                self.matching.stats.count_copy(env.nbytes)
            self.matching.stats.expected_msgs += 1
            posted.request.complete(Status(env.src, env.tag, env.nbytes))
            return
        # Unexpected: copy into a temporary buffer and queue (first of the
        # two copies the default path pays).
        if env.data is not None:
            env.data = np.array(env.data, copy=True)
            ledger.charge(self.costs.copy_us(env.nbytes), "copy")
            self.matching.stats.count_copy(env.nbytes)
        ledger.charge(self.costs.unexpected_insert_us, "match")
        self.matching.store_unexpected(env)

    def _deliver_rts(self, env: Envelope, ledger: Ledger) -> None:
        ledger.charge(self.costs.match_us, "match")
        posted = self.matching.find_posted(env)
        if posted is None:
            ledger.charge(self.costs.unexpected_insert_us, "match")
            self.matching.store_unexpected(env)
            return
        self._setup_rndv_recv(env, posted, ledger)

    def _setup_rndv_recv(self, rts: Envelope, posted: PostedRecv,
                         ledger: Ledger) -> None:
        """Receiver side of the rendezvous handshake: pin + CTS."""
        registration = self.node.pinned.pin(rts.rndv_bytes or 0, ledger)
        self._rndv_recvs[rts.rndv_seq] = _RndvRecv(posted, registration)
        cts = Envelope(src=self.node.id, dst=rts.src, tag=rts.tag,
                       context_id=rts.context_id, kind=TransferKind.RNDV_CTS,
                       data=None, nbytes=0, rndv_seq=rts.rndv_seq)
        ledger.charge(self.costs.host_send_overhead_us, "send")
        self._transmit(cts, PacketType.RNDV_CTS, ledger)

    def _deliver_cts(self, env: Envelope, ledger: Ledger) -> None:
        state = self._rndv_sends.pop(env.rndv_seq, None)
        if state is None:
            raise MatchError(f"CTS for unknown rendezvous transfer "
                             f"{env.rndv_seq} at rank {self.node.id}")
        # Pin the send buffer in place, stream it, then release.
        registration = self.node.pinned.pin(state.data.nbytes, ledger)
        data_env = Envelope(src=self.node.id, dst=env.src, tag=state.tag,
                            context_id=state.context_id,
                            kind=TransferKind.RNDV_DATA,
                            data=np.array(state.data, copy=True),
                            nbytes=state.data.nbytes,
                            rndv_seq=env.rndv_seq)
        ledger.charge(self.costs.host_send_overhead_us, "send")
        self._transmit(data_env, PacketType.RNDV_DATA, ledger)
        self.node.pinned.unpin(registration, ledger)
        state.request.complete(Status(self.node.id, state.tag,
                                      state.data.nbytes))

    def _deliver_rdata(self, env: Envelope, ledger: Ledger) -> None:
        state = self._rndv_recvs.pop(env.rndv_seq, None)
        if state is None:
            raise MatchError(f"rendezvous data for unknown transfer "
                             f"{env.rndv_seq} at rank {self.node.id}")
        # DMA placed the payload directly in the pinned user buffer: no host
        # copy is charged (that's the entire point of rendezvous mode).
        if state.posted.buffer is not None and env.data is not None:
            self.matching.copy_payload(state.posted.buffer, env.data,
                                       env.nbytes)
        self.node.pinned.unpin(state.registration, ledger)
        self.matching.stats.expected_msgs += 1
        state.posted.request.complete(Status(env.src, env.tag, env.nbytes))

    # ------------------------------------------------------------------
    # instantaneous send/recv entry points
    # ------------------------------------------------------------------
    def start_send(self, data: np.ndarray, dest: int, tag: int,
                   context_id: int, ledger: Ledger, *,
                   ab: Optional[AbHeader] = None) -> Request:
        """Begin a send; returns its request (eager completes immediately)."""
        if data.nbytes <= self.costs.eager_limit_bytes:
            return self._start_eager(data, dest, tag, context_id, ledger, ab)
        if ab is not None:
            raise MatchError("application-bypass messages must be eager "
                             "(the paper falls back to the default path "
                             "beyond the eager limit)")
        return self._start_rndv(data, dest, tag, context_id, ledger)

    def _start_eager(self, data: np.ndarray, dest: int, tag: int,
                     context_id: int, ledger: Ledger,
                     ab: Optional[AbHeader]) -> Request:
        ledger.charge(self.costs.host_send_overhead_us, "send")
        nbytes = data.nbytes
        # A zero-byte payload (the barrier token) has no contents a later
        # write could change: it is its own snapshot.
        snapshot = np.array(data, copy=True) if nbytes else data
        # Eager mode: copy into the pre-pinned GM bounce buffer.
        ledger.charge(self.costs.copy_us(nbytes), "copy")
        self.stats.send_copies += 1
        env = Envelope(src=self.node.id, dst=dest, tag=tag,
                       context_id=context_id, kind=TransferKind.EAGER,
                       data=snapshot, nbytes=nbytes, ab=ab)
        ptype = (PacketType.AB_COLLECTIVE if ab is not None
                 else PacketType.EAGER)
        self._transmit(env, ptype, ledger)
        request = Request("send")
        request.complete(Status(self.node.id, tag, nbytes))
        self.stats.sends_eager += 1
        return request

    def _start_rndv(self, data: np.ndarray, dest: int, tag: int,
                    context_id: int, ledger: Ledger) -> Request:
        request = Request("send")
        seq = next(_rndv_seq)
        self._rndv_sends[seq] = _RndvSend(np.array(data, copy=True), request,
                                          tag, context_id)
        rts = Envelope(src=self.node.id, dst=dest, tag=tag,
                       context_id=context_id, kind=TransferKind.RNDV_RTS,
                       data=None, nbytes=0, rndv_seq=seq,
                       rndv_bytes=data.nbytes)
        ledger.charge(self.costs.host_send_overhead_us, "send")
        self._transmit(rts, PacketType.RNDV_RTS, ledger)
        self.stats.sends_rndv += 1
        return request

    def _transmit(self, env: Envelope, ptype: PacketType,
                  ledger: Ledger) -> None:
        if env.dst == self.node.id:
            # Self-send: deliver locally without touching the fabric.
            self._deliver(env, ledger)
            return
        seg = env.ab.seg if env.ab is not None else -1
        packet = Packet(self.node.id, env.dst, ptype, env.nbytes, env,
                        seg=seg)
        self.nic.send(packet, launch_offset=ledger.total)

    def post_recv(self, buffer: Optional[np.ndarray], source: int, tag: int,
                  context_id: int, ledger: Ledger) -> Request:
        """Post a receive; consumes a queued unexpected message if one
        matches (the second copy of the default unexpected path)."""
        ledger.charge(self.costs.post_recv_us, "match")
        request = Request("recv")
        env = self.matching.take_unexpected(source, tag, context_id)
        if env is None:
            self.matching.add_posted(PostedRecv(source, tag, context_id,
                                                buffer, request, self.sim.now))
            return request
        if env.kind is TransferKind.EAGER:
            if buffer is not None and env.data is not None:
                self.matching.copy_payload(buffer, env.data, env.nbytes)
                ledger.charge(self.costs.copy_us(env.nbytes), "copy")
                self.matching.stats.count_copy(env.nbytes)
            request.complete(Status(env.src, env.tag, env.nbytes))
        elif env.kind is TransferKind.RNDV_RTS:
            posted = PostedRecv(source, tag, context_id, buffer, request,
                                self.sim.now)
            self._setup_rndv_recv(env, posted, ledger)
        else:  # pragma: no cover - only EAGER/RTS are ever queued
            raise MatchError(f"unexpected queue held {env.kind}")
        return request

    # ------------------------------------------------------------------
    # blocking (process-context) helpers
    # ------------------------------------------------------------------
    def spin(self, until: Trigger,
             deadline: Optional[float] = None) -> Generator:
        """Drain the receive queue, then block for the next arrival, until
        ``until`` has fired — the one blocking poll loop (every synchronous
        wait in the library is this loop on a different trigger).

        The spun interval is charged to the CPU (category ``poll``) — this
        is the synchronous waiting cost of default MPICH.  With a
        ``deadline`` (absolute simulated time) each wait is bounded: it is
        woken by the next arrival or the deadline, whichever is first.
        Returns True once ``until`` has fired (immediately, scheduling
        nothing, if it already had), False if the deadline passed first.
        """
        self.active_depth += 1
        try:
            while not until.fired:
                trigger = self.nic.rx_notifier.wait()
                ledger = Ledger()
                self.drain(ledger)
                if ledger.total > 0.0:
                    yield ledger
                if until.fired:
                    break
                if deadline is not None:
                    if self.sim.now >= deadline:
                        return False
                    self.sim.at(deadline, trigger.fire, None)
                yield WaitFor(trigger, poll_category="poll")
            return True
        finally:
            self.active_depth -= 1

    def wait(self, request: Request) -> Generator:
        """Spin the progress engine until ``request`` completes."""
        if not request.done:
            yield from self.spin(request.completion)
        return request.status

    def wait_all(self, requests: list[Request]) -> Generator:
        """Wait for every request in ``requests``."""
        for request in requests:
            yield from self.wait(request)
        return [r.status for r in requests]

    # ------------------------------------------------------------------
    # signal entry (the paper's NIC-to-host path, Fig. 4)
    # ------------------------------------------------------------------
    def on_signal(self, ledger: Ledger, overhead_us: float) -> None:
        if self.active_depth > 0:
            # Progress already underway: the handler returns without doing
            # anything (paper Fig. 4 note), but the kernel delivery still
            # stole the CPU — the interrupted poll/work segment resumes
            # late by that much (the paper's latency penalty, Sec. VI-B).
            self.stats.signals_ignored += 1
            self.node.cpu.add_interrupt_penalty(overhead_us)
            return
        ledger.charge(overhead_us, "signal")
        self.stats.signal_progress_runs += 1
        self.active_depth += 1
        try:
            self.drain(ledger)
        finally:
            self.active_depth -= 1
