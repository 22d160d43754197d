"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.simulator.Simulator` — event loop + process driver
* :class:`~repro.sim.cpu.HostCpu` — preemptive CPU with per-category
  accounting
* command objects ``Ledger`` (and its one-charge form ``Busy``),
  ``Compute``, ``WaitFor`` and the synchronization primitives
  ``Trigger`` / ``Notifier``
* :class:`~repro.sim.random.RngStreams` — deterministic named RNG streams
* :class:`~repro.sim.trace.Tracer` — optional structured tracing
"""

from .cpu import BUSY, COMPUTE, IDLE, POLL, HostCpu
from .events import Event, EventQueue
from .process import (Busy, Command, Compute, Ledger, Notifier, SimProcess,
                      Trigger, WaitFor)
from .random import RngStreams
from .simulator import Simulator
from .trace import Tracer

__all__ = [
    "Simulator", "Event", "EventQueue",
    "Busy", "Compute", "WaitFor", "Command",
    "Trigger", "Notifier", "SimProcess",
    "HostCpu", "Ledger", "IDLE", "BUSY", "COMPUTE", "POLL",
    "RngStreams", "Tracer",
]
