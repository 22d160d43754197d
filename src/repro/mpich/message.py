"""Message envelopes.

An :class:`Envelope` is the MPI-layer view of one message: the matching
triple ``(source, tag, context_id)``, the transfer kind (eager / rendezvous
phases), the payload, and — for application-bypass traffic — the
:class:`AbHeader` the paper's collective packet type carries so that the
receiving progress engine can (a) detect AB packets, (b) route root-bound
packets to the default synchronous path, and (c) sanity-check descriptor
matching against the reduction *instance*.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Wildcards (match any source / any tag).
ANY_SOURCE = -1
ANY_TAG = -1

#: Reserved tags used by the collective algorithms (kept far from user tags).
TAG_REDUCE = 1_000_001
TAG_BCAST = 1_000_002
TAG_BARRIER = 1_000_003
TAG_GATHER = 1_000_004
TAG_NOTIFY = 1_000_005


class TransferKind(enum.Enum):
    EAGER = "eager"
    RNDV_RTS = "rts"
    RNDV_CTS = "cts"
    RNDV_DATA = "rdata"


@dataclass(frozen=True)
class AbHeader:
    """Application-bypass metadata carried by the collective packet type."""

    #: Absolute rank of the reduction's root.
    root: int
    #: Per-communicator AB-collective instance number.  All ranks call
    #: collectives in the same order, so instance numbers agree globally.
    instance: int
    #: Which collective this belongs to ("reduce" or "bcast" extension).
    kind: str = "reduce"
    #: Segment index within a pipelined collective (repro.pipeline); -1
    #: marks a whole-message packet.  With the envelope's context and
    #: ``instance`` it is the identity the packet is matched on
    #: (:mod:`repro.core.descriptor` states the rule).
    seg: int = -1


_seq = itertools.count(1)


class Envelope:
    """One MPI message in flight (or queued)."""

    __slots__ = ("src", "dst", "tag", "context_id", "kind", "data", "nbytes",
                 "ab", "seq", "rndv_seq", "rndv_bytes")

    def __init__(self, src: int, dst: int, tag: int, context_id: int,
                 kind: TransferKind, data: Optional[np.ndarray], nbytes: int,
                 ab: Optional[AbHeader] = None,
                 rndv_seq: Optional[int] = None,
                 rndv_bytes: Optional[int] = None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.context_id = context_id
        self.kind = kind
        self.data = data
        self.nbytes = nbytes
        self.ab = ab
        self.seq = next(_seq)
        #: Pairs the three rendezvous phases of one transfer.
        self.rndv_seq = rndv_seq
        #: Total transfer size advertised by a rendezvous RTS.
        self.rndv_bytes = rndv_bytes

    def matches(self, source: int, tag: int, context_id: int) -> bool:
        """Does this envelope satisfy a receive for (source, tag, context)?"""
        if context_id != self.context_id:
            return False
        if source != ANY_SOURCE and source != self.src:
            return False
        if tag != ANY_TAG and tag != self.tag:
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        abtag = f" ab(root={self.ab.root},inst={self.ab.instance})" if self.ab else ""
        return (f"<Envelope #{self.seq} {self.src}->{self.dst} tag={self.tag} "
                f"ctx={self.context_id} {self.kind.value} {self.nbytes}B{abtag}>")
