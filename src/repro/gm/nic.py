"""The GM network interface model (LANai control program + DMA engines).

Timeline of one eager message A → B:

1. Host A's MPI layer charges its own send overhead and the eager copy into a
   pre-pinned bounce buffer (that cost is on the *host* ledger, not here),
   then calls :meth:`Nic.send` with a launch offset equal to the host work
   already accumulated.
2. NIC A serializes the send: DMA from host memory plus LANai packet staging
   (one packet at a time → ``tx_free_at``).
3. The fabric computes wire transit including switch contention and enforces
   per-pair FIFO (see :mod:`repro.network.fabric`).
4. NIC B receives: LANai processing plus DMA into the host receive region
   (``rx_free_at``), then appends the packet to the **host receive queue**
   and notifies any poller.
5. *The paper's modification:* if the packet is of the AB collective type
   and the host currently has signals enabled, the NIC raises a host signal
   after a short dispatch latency.  The signal preempts application compute
   (see :class:`repro.sim.cpu.HostCpu`) and runs the registered handler —
   normally the MPICH progress engine with the application-bypass hook.

Lost-wakeup guard: :meth:`enable_signals` re-raises a signal if AB packets
are already sitting in the receive queue.  The real GM modification closes
the same race inside the control program; without this, a packet landing
between the final synchronous drain and the enable call (paper Fig. 3) would
sleep forever.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from ..config import NicParams
from ..sim.cpu import HostCpu
from ..sim.process import Ledger, Notifier
from ..sim.trace import Tracer
from .packet import Packet, PacketType

#: Host signal entry point.  Receives the CPU ledger and the kernel-delivery
#: overhead (already scaled for this host).  The handler charges the overhead
#: itself *unless* it ignores the signal because progress is already underway
#: — in that case the blocked-polling interval already bills that wall time,
#: and charging again would double-count the CPU.
SignalHandler = Callable[[Ledger, float], None]


@dataclass(slots=True)
class NicStats:
    """Counters exposed for tests and reports."""

    packets_sent: int = 0
    packets_received: int = 0
    signals_raised: int = 0
    signals_suppressed: int = 0
    signal_toggles: int = 0
    #: Sends delayed waiting for a GM send token (flow control).
    send_token_stalls: int = 0
    #: Arrivals delayed waiting for a host receive buffer.
    recv_token_stalls: int = 0
    #: Segment-tagged collective traffic (repro.pipeline; zero unless
    #: the pipeline subsystem is armed).
    segment_packets_sent: int = 0
    segment_bytes_sent: int = 0


class Nic:
    """One node's network interface card."""

    def __init__(self, sim, node_id: int, params: NicParams, *,
                 lanai_scale: float, host_scale: float,
                 dma_bytes_per_us: float, fabric, cpu: HostCpu,
                 tracer: Optional[Tracer] = None,
                 net_params=None, force_reliable: bool = False):
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.lanai_scale = lanai_scale
        self.host_scale = host_scale
        self.dma_bytes_per_us = dma_bytes_per_us
        self.fabric = fabric
        self.cpu = cpu
        self.tracer = tracer or Tracer()

        self.tx_free_at = 0.0
        self.rx_free_at = 0.0
        #: Packets DMA-complete and visible to the host progress engine.
        self.rx_queue: deque[Packet] = deque()
        self.rx_notifier = Notifier()
        # GM flow control: finish times of in-flight sends (send tokens)
        # and free host receive buffers (receive tokens).
        self._send_inflight: deque[float] = deque()
        self._recv_tokens_free = params.recv_tokens
        self._rx_backlog: list[tuple[Packet, float]] = []

        self.signals_enabled = False
        self._signal_handler: Optional[SignalHandler] = None
        #: NIC-resident collective unit (see repro.core.nic_reduce); when
        #: installed, NIC_COLLECTIVE packets are combined on the LANai and
        #: never DMA'd to this host.
        self.collective_unit = None
        #: GM reliable delivery, engaged when the fabric is lossy (or a
        #: fault injector that destroys packets forces it on).
        self.reliable = None
        if net_params is not None and (net_params.drop_prob > 0.0
                                       or force_reliable):
            from .reliability import ReliableChannel
            self.reliable = ReliableChannel(
                self, net_params.retransmit_timeout_us)
        #: Fail-stop flag (repro.faults rank_crash): a crashed NIC drops
        #: every arrival and never raises another signal.
        self.crashed = False
        #: Fault hook (nic_signal_suppress): zero-arg callable; True means
        #: "swallow this signal".  None on a fault-free NIC.
        self.signal_suppressor = None
        #: True while a raised signal has not yet been delivered; further
        #: raises coalesce into it (Unix signal semantics — one pending
        #: SIGIO, the handler drains everything that arrived meanwhile).
        self._signal_pending = False
        self.stats = NicStats()
        #: Invariant monitor notified on signal-enable transitions (see
        #: repro.analysis.invariants); None in production runs.
        self.monitor = None

        fabric.attach(node_id, self._on_wire_arrival)

    # ------------------------------------------------------------------
    # host-facing API
    # ------------------------------------------------------------------
    def register_signal_handler(self, handler: SignalHandler) -> None:
        """Install the host routine a NIC signal invokes (progress engine)."""
        self._signal_handler = handler

    def send(self, packet: Packet, launch_offset: float = 0.0) -> None:
        """Queue ``packet`` for transmission.

        ``launch_offset`` positions the hand-off relative to ``sim.now`` so
        that instantaneous host logic (ledger-based) can interleave multiple
        sends at their true times.
        """
        ready = self.sim.now + launch_offset
        # GM send-token flow control: at most `send_tokens` sends may be
        # outstanding; a further send waits for the oldest to finish.
        inflight = self._send_inflight
        while inflight and inflight[0] <= ready:
            inflight.popleft()
        if len(inflight) >= self.params.send_tokens:
            token_at = inflight[len(inflight) - self.params.send_tokens]
            if token_at > ready:
                ready = token_at
                self.stats.send_token_stalls += 1
        start = max(ready, self.tx_free_at)
        duration = (self.params.dma_setup_us +
                    packet.nbytes / self.dma_bytes_per_us +
                    self.params.lanai_send_us * self.lanai_scale)
        finish = start + duration
        self.tx_free_at = finish
        inflight.append(finish)
        self.stats.packets_sent += 1
        if packet.seg >= 0:
            self.stats.segment_packets_sent += 1
            self.stats.segment_bytes_sent += packet.nbytes
        if self.reliable is not None:
            self.reliable.register_send(packet)
        if self.tracer.enabled:
            self.tracer.emit("nic.send", node=self.node_id, pkt=packet.seq,
                             dst=packet.dst, ptype=packet.ptype.value,
                             nbytes=packet.nbytes, wire_at=finish)
        self.fabric.inject(packet, self.node_id, packet.dst, finish)

    def retransmit(self, packet: Packet) -> None:
        """Resend a buffered (already-sequenced) packet after a timeout."""
        start = max(self.sim.now, self.tx_free_at)
        duration = (self.params.dma_setup_us +
                    packet.nbytes / self.dma_bytes_per_us +
                    self.params.lanai_send_us * self.lanai_scale)
        self.tx_free_at = start + duration
        if self.tracer.enabled:
            self.tracer.emit("nic.retransmit", node=self.node_id,
                             pkt=packet.seq, dst=packet.dst, gseq=packet.gseq)
        self.fabric.inject(packet, self.node_id, packet.dst,
                           self.tx_free_at)

    def transmit_control(self, packet: Packet) -> None:
        """Send a zero-payload control packet (ACKs) at NIC priority."""
        start = max(self.sim.now, self.tx_free_at)
        self.tx_free_at = start + self.params.lanai_send_us * self.lanai_scale
        self.fabric.inject(packet, self.node_id, packet.dst,
                           self.tx_free_at)

    def enable_signals(self, ledger: Ledger) -> None:
        """Ask the NIC to raise signals for AB packets (paper Fig. 3)."""
        ledger.charge(self.params.signal_toggle_us * self.host_scale, "signal")
        self.stats.signal_toggles += 1
        if self.signals_enabled:
            return
        self.signals_enabled = True
        if self.monitor is not None:
            self.monitor.on_signal_toggle(self.node_id, True, self.sim.now)
        # Close the enable/arrival race: if AB packets already landed, the
        # modified control program raises the signal immediately.
        if any(p.ptype is PacketType.AB_COLLECTIVE for p in self.rx_queue):
            self._schedule_signal()

    def disable_signals(self, ledger: Ledger) -> None:
        """Stop signal generation (descriptor queue drained, Fig. 5)."""
        ledger.charge(self.params.signal_toggle_us * self.host_scale, "signal")
        self.stats.signal_toggles += 1
        if self.signals_enabled and self.monitor is not None:
            self.monitor.on_signal_toggle(self.node_id, False, self.sim.now)
        self.signals_enabled = False

    # ------------------------------------------------------------------
    # fault-injection entry points (repro.faults)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop this NIC: drop all future arrivals, cancel timers."""
        self.crashed = True
        if self.reliable is not None:
            self.reliable.shutdown()

    def kick_signals(self) -> None:
        """Re-raise a signal if AB packets are pending (suppression-window
        end): a signal swallowed after the rank's last blocking MPI call
        would otherwise strand those packets in the RX queue forever."""
        if self.crashed or not self.signals_enabled:
            return
        if self._signal_handler is None:
            return
        if any(p.ptype is PacketType.AB_COLLECTIVE for p in self.rx_queue):
            self._schedule_signal()

    # ------------------------------------------------------------------
    # wire-facing internals
    # ------------------------------------------------------------------
    def pop_rx(self) -> Packet:
        """Dequeue one host-visible packet, releasing its receive token.

        The progress engine must use this (not the raw queue) so that GM
        receive-buffer flow control stays balanced.
        """
        packet = self.rx_queue.popleft()
        self._recv_tokens_free += 1
        if self._rx_backlog:
            backlog_packet, backlog_arrival = self._rx_backlog.pop(0)
            self._start_rx(backlog_packet, max(backlog_arrival, self.sim.now))
        return packet

    def _on_wire_arrival(self, packet: Packet, arrival: float) -> None:
        if self.crashed:
            return
        if self.reliable is not None and not self.reliable.accept(packet):
            return  # ACK handled, duplicate, or out-of-order (go-back-N)
        if self._recv_tokens_free <= 0:
            # No host receive buffer: the packet waits at the NIC (real GM
            # NACKs and the sender retransmits; the timing effect is the
            # same backpressure).
            self.stats.recv_token_stalls += 1
            self._rx_backlog.append((packet, arrival))
            return
        self._start_rx(packet, arrival)

    def _start_rx(self, packet: Packet, arrival: float) -> None:
        if (packet.ptype is PacketType.NIC_COLLECTIVE
                and self.collective_unit is not None):
            # NIC-resident path: LANai header processing only — the payload
            # stays in NIC SRAM, no host DMA, no receive token consumed.
            done = (max(arrival, self.rx_free_at) +
                    self.params.lanai_recv_us * self.lanai_scale)
            self.rx_free_at = done
            self.stats.packets_received += 1
            self.sim.at(done, self.collective_unit.on_packet, packet)
            return
        self._recv_tokens_free -= 1
        start = max(arrival, self.rx_free_at)
        duration = (self.params.lanai_recv_us * self.lanai_scale +
                    self.params.dma_setup_us +
                    packet.nbytes / self.dma_bytes_per_us)
        if (packet.ptype is PacketType.AB_COLLECTIVE and
                self.signals_enabled):
            # Interrupt-raising path in the modified control program is
            # slower than the plain deposit path (see NicParams).
            duration += self.params.ab_rx_extra_us * self.lanai_scale
        done = start + duration
        self.rx_free_at = done
        self.sim.at(done, self._rx_complete, packet)

    def _rx_complete(self, packet: Packet) -> None:
        if self.crashed:
            return
        self.rx_queue.append(packet)
        self.stats.packets_received += 1
        if self.tracer.enabled:
            self.tracer.emit("nic.recv", node=self.node_id, pkt=packet.seq,
                             src=packet.src, ptype=packet.ptype.value)
        self.rx_notifier.notify(packet)
        if packet.ptype is PacketType.AB_COLLECTIVE:
            if self.signals_enabled and self._signal_handler is not None:
                self._schedule_signal()
            else:
                self.stats.signals_suppressed += 1

    def _schedule_signal(self) -> None:
        if self.signal_suppressor is not None and self.signal_suppressor():
            self.stats.signals_suppressed += 1
            return
        if self._signal_pending:
            # Coalesce: one pending signal covers every packet that lands
            # before it is delivered (Unix pending-signal semantics).
            self.stats.signals_suppressed += 1
            return
        self._signal_pending = True
        self.sim.schedule(self.params.signal_dispatch_us, self._raise_signal)

    def _raise_signal(self) -> None:
        self._signal_pending = False
        if self.crashed:
            return
        # Re-check: the host may have disabled signals while the dispatch
        # was in flight (e.g. the synchronous path consumed everything).
        if not self.signals_enabled or self._signal_handler is None:
            self.stats.signals_suppressed += 1
            return
        if self.signal_suppressor is not None and self.signal_suppressor():
            self.stats.signals_suppressed += 1
            return
        self.stats.signals_raised += 1
        if self.tracer.enabled:
            self.tracer.emit("nic.signal", node=self.node_id)
        handler = self._signal_handler
        overhead = self.params.signal_overhead_us * self.host_scale
        self.cpu.run_handler(lambda ledger: handler(ledger, overhead))
