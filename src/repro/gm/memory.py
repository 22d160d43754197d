"""Pinned (DMA-registered) memory model.

GM can only DMA to/from memory registered with the kernel driver.  MPICH over
GM therefore runs small messages through pre-pinned bounce buffers (*eager*
mode, one copy each side) and pins large buffers in place (*rendezvous* mode,
zero copy but an expensive registration syscall) — paper Sec. III.

This module charges realistic pin/unpin costs and tracks registrations so
tests can assert that every pin is eventually released.
"""

from __future__ import annotations

import itertools

from ..config import NicParams
from ..errors import PinError
from ..sim.process import Ledger

PAGE_BYTES = 4096


class Registration:
    """A live DMA registration."""

    __slots__ = ("handle", "nbytes", "released")

    def __init__(self, handle: int, nbytes: int):
        self.handle = handle
        self.nbytes = nbytes
        self.released = False


class PinnedMemoryManager:
    """Per-node registry of pinned regions with cost accounting."""

    def __init__(self, params: NicParams, host_scale: float):
        self.params = params
        self.host_scale = host_scale
        self._handles = itertools.count(1)
        self._live: dict[int, Registration] = {}
        self.pins = 0
        self.unpins = 0
        self.pinned_bytes = 0
        self.peak_pinned_bytes = 0

    @staticmethod
    def pages(nbytes: int) -> int:
        """Number of 4 KiB pages covering ``nbytes`` (at least one)."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // PAGE_BYTES)

    def pin(self, nbytes: int, ledger: Ledger) -> Registration:
        """Register ``nbytes`` for DMA; charges the syscall to ``ledger``."""
        if nbytes < 0:
            raise PinError("cannot pin a negative-size region")
        cost = (self.params.pin_base_us +
                self.params.pin_per_page_us * self.pages(nbytes))
        ledger.charge(cost * self.host_scale, "pin")
        reg = Registration(next(self._handles), nbytes)
        self._live[reg.handle] = reg
        self.pins += 1
        self.pinned_bytes += nbytes
        self.peak_pinned_bytes = max(self.peak_pinned_bytes, self.pinned_bytes)
        return reg

    def unpin(self, reg: Registration, ledger: Ledger) -> None:
        """Release a registration; charges the syscall to ``ledger``."""
        if reg.released or reg.handle not in self._live:
            raise PinError(f"double unpin of handle {reg.handle}")
        ledger.charge(self.params.unpin_base_us * self.host_scale, "pin")
        reg.released = True
        del self._live[reg.handle]
        self.unpins += 1
        self.pinned_bytes -= reg.nbytes

    @property
    def live_registrations(self) -> int:
        return len(self._live)
