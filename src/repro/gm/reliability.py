"""GM reliable delivery: go-back-N with ACKs and retransmit timers.

Myrinet links are nearly lossless, but GM still runs a reliability protocol
in the control program — which is what lets the layers above (and the
paper's application-bypass machinery, which leans on per-pair FIFO
delivery) treat the network as ordered and reliable.  This module models
that protocol so the test suite can inject faults
(``NetParams.drop_prob``) and verify that everything above survives:

* every data packet carries a per-``(src, dst)`` sequence number;
* the receiving NIC delivers strictly in order: duplicates and
  out-of-order arrivals (implying an earlier loss) are discarded and the
  last in-order sequence is re-ACKed;
* the sending NIC buffers unacknowledged packets and retransmits the whole
  window on timeout (go-back-N), which also covers lost ACKs.

The machinery is only engaged when ``drop_prob > 0``: on a loss-free
fabric the protocol is invisible except for ACK traffic, so the default
configuration bypasses it entirely (DESIGN.md §6.8).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..sim.events import PRIORITY_TIMER
from .packet import Packet, PacketType


class _Ack:
    """ACK payload: cumulative sequence acknowledgement."""

    __slots__ = ("acked_seq",)

    def __init__(self, acked_seq: int):
        self.acked_seq = acked_seq


class _PeerTx:
    """Sender-side state toward one destination."""

    __slots__ = ("next_seq", "unacked", "timer")

    def __init__(self) -> None:
        self.next_seq = 0
        #: (gseq, packet, last_sent_at)
        self.unacked: deque[list] = deque()
        self.timer = None


@dataclass(slots=True)
class ReliabilityStats:
    acks_sent: int = 0
    acks_received: int = 0
    retransmissions: int = 0
    duplicates_discarded: int = 0
    gaps_discarded: int = 0
    timer_fires: int = 0
    #: High-water mark of the unacked (go-back-N) window, any peer.
    max_window: int = 0


class ReliableChannel:
    """Per-NIC reliable-delivery engine (active only on lossy fabrics)."""

    def __init__(self, nic, rto_us: float):
        self.nic = nic
        self.sim = nic.sim
        self.rto_us = rto_us
        self._tx: dict[int, _PeerTx] = {}
        self._rx_expected: dict[int, int] = {}
        #: Peers known crashed (repro.faults): sends toward them are still
        #: sequenced but never buffered, so no timer spins against a
        #: silent NIC.
        self._dead_peers: set[int] = set()
        self.stats = ReliabilityStats()

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def register_send(self, packet: Packet) -> None:
        """Stamp a sequence number and buffer the packet until ACKed."""
        peer = self._tx.setdefault(packet.dst, _PeerTx())
        packet.gseq = peer.next_seq
        peer.next_seq += 1
        if packet.dst in self._dead_peers:
            return  # sequenced for the wire, but no ACK will ever come
        peer.unacked.append([packet.gseq, packet, self.sim.now])
        if len(peer.unacked) > self.stats.max_window:
            self.stats.max_window = len(peer.unacked)
        if peer.timer is None:
            # TIMER class: an RTO due exactly when the ACK lands must see
            # the ACK applied first — otherwise the go-back-N window
            # retransmits or not depending on the same-instant tiebreak
            # (a schedule race the perturbation harness flagged).
            peer.timer = self.sim.schedule(self.rto_us, self._check_timer,
                                           packet.dst,
                                           priority=PRIORITY_TIMER)

    def handle_ack(self, src: int, acked_seq: int) -> None:
        self.stats.acks_received += 1
        peer = self._tx.get(src)
        if peer is None:
            return
        while peer.unacked and peer.unacked[0][0] <= acked_seq:
            peer.unacked.popleft()

    def _check_timer(self, dst: int) -> None:
        peer = self._tx.get(dst)
        if peer is None:
            return
        peer.timer = None
        if not peer.unacked:
            return
        oldest_sent = peer.unacked[0][2]
        due = oldest_sent + self.rto_us
        if self.sim.now + 1e-9 < due:
            peer.timer = self.sim.at(due, self._check_timer, dst,
                                     priority=PRIORITY_TIMER)
            return
        # Timeout: go-back-N — retransmit the whole outstanding window.
        self.stats.timer_fires += 1
        for entry in peer.unacked:
            entry[2] = self.sim.now
            self.stats.retransmissions += 1
            self.nic.retransmit(entry[1])
        peer.timer = self.sim.schedule(self.rto_us, self._check_timer, dst,
                                       priority=PRIORITY_TIMER)

    # ------------------------------------------------------------------
    # fault-injection entry points (repro.faults rank_crash)
    # ------------------------------------------------------------------
    def mark_peer_dead(self, dst: int) -> None:
        """Stop retransmitting toward a crashed peer: cancel its timer and
        discard the outstanding window (those packets are undeliverable)."""
        self._dead_peers.add(dst)
        peer = self._tx.get(dst)
        if peer is None:
            return
        if peer.timer is not None:
            self.sim.cancel(peer.timer)
            peer.timer = None
        peer.unacked.clear()

    def shutdown(self) -> None:
        """This NIC crashed: cancel every timer, drop every window."""
        for peer in self._tx.values():
            if peer.timer is not None:
                self.sim.cancel(peer.timer)
                peer.timer = None
            peer.unacked.clear()

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def accept(self, packet: Packet) -> bool:
        """In-order filter; returns True if the packet should be delivered.

        Always (re-)ACKs the highest in-order sequence so the sender's
        window drains even when packets or previous ACKs were lost.
        """
        if packet.ptype is PacketType.CONTROL:
            ack: _Ack = packet.payload
            self.handle_ack(packet.src, ack.acked_seq)
            return False
        expected = self._rx_expected.get(packet.src, 0)
        gseq = packet.gseq
        if gseq == expected:
            self._rx_expected[packet.src] = expected + 1
            self._send_ack(packet.src, gseq)
            return True
        if gseq < expected:
            self.stats.duplicates_discarded += 1
        else:
            self.stats.gaps_discarded += 1
        self._send_ack(packet.src, expected - 1)
        return False

    def _send_ack(self, dst: int, acked_seq: int) -> None:
        if acked_seq < 0:
            return
        self.stats.acks_sent += 1
        ack = Packet(self.nic.node_id, dst, PacketType.CONTROL, 0,
                     _Ack(acked_seq))
        ack.gseq = -1
        self.nic.transmit_control(ack)
