"""MPICH message matching: the posted-receive and unexpected queues.

Semantics follow the paper's Sec. III description of MPICH over GM:

* an arriving message is first matched against *posted* receives; on a match
  the payload is copied straight into the application buffer (**one** copy);
* otherwise MPICH allocates a temporary buffer, copies the message in, and
  appends it to the **unexpected queue**; when a matching receive is later
  posted the payload is copied again into the user buffer (**two** copies).

Copy counts and copied bytes are tracked explicitly because the paper's
50% / 100% copy-reduction claims for the application-bypass queues are
assertions our tests verify rather than take on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import TruncationError
from .message import ANY_SOURCE, ANY_TAG, Envelope
from .requests import Request


class PostedRecv:
    """One posted (pending) receive."""

    __slots__ = ("source", "tag", "context_id", "buffer", "request",
                 "posted_at")

    def __init__(self, source: int, tag: int, context_id: int,
                 buffer: Optional[np.ndarray], request: Request,
                 posted_at: float):
        self.source = source
        self.tag = tag
        self.context_id = context_id
        self.buffer = buffer
        self.request = request
        self.posted_at = posted_at

    def accepts(self, env: Envelope) -> bool:
        if self.context_id != env.context_id:
            return False
        if self.source != ANY_SOURCE and self.source != env.src:
            return False
        if self.tag != ANY_TAG and self.tag != env.tag:
            return False
        return True


@dataclass(slots=True)
class MatchStats:
    """Counters for queue activity and copy accounting."""

    expected_msgs: int = 0
    unexpected_msgs: int = 0
    copies: int = 0
    copied_bytes: int = 0
    max_unexpected_len: int = 0

    def count_copy(self, nbytes: int) -> None:
        self.copies += 1
        self.copied_bytes += nbytes


class MatchingEngine:
    """Per-rank posted/unexpected queues with MPICH matching order."""

    def __init__(self) -> None:
        self.posted: list[PostedRecv] = []
        self.unexpected: list[Envelope] = []
        self.stats = MatchStats()

    # -- arrival side ---------------------------------------------------
    def find_posted(self, env: Envelope) -> Optional[PostedRecv]:
        """Oldest posted receive matching ``env`` (removed on match)."""
        for i, posted in enumerate(self.posted):
            if posted.accepts(env):
                del self.posted[i]
                return posted
        return None

    def store_unexpected(self, env: Envelope) -> None:
        """Buffer an early arrival (its data already copied once)."""
        self.unexpected.append(env)
        self.stats.unexpected_msgs += 1
        self.stats.max_unexpected_len = max(self.stats.max_unexpected_len,
                                            len(self.unexpected))

    # -- posting side ----------------------------------------------------
    def take_unexpected(self, source: int, tag: int,
                        context_id: int) -> Optional[Envelope]:
        """Oldest unexpected message matching the receive criteria."""
        for i, env in enumerate(self.unexpected):
            if env.matches(source, tag, context_id):
                del self.unexpected[i]
                return env
        return None

    def add_posted(self, posted: PostedRecv) -> None:
        self.posted.append(posted)

    def remove_posted(self, request: Request) -> bool:
        """Withdraw a posted receive by its request (for cancel)."""
        for i, posted in enumerate(self.posted):
            if posted.request is request:
                del self.posted[i]
                return True
        return False

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def copy_payload(dst: np.ndarray, data: np.ndarray, nbytes: int) -> None:
        """Copy ``data`` into ``dst`` (flat byte-compatible views required)."""
        if data.nbytes > dst.nbytes:
            raise TruncationError(
                f"message of {data.nbytes} B overflows {dst.nbytes} B buffer")
        flat = dst.reshape(-1)
        flat[: data.size] = data.reshape(-1)
