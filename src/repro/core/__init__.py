"""The paper's contribution: application-bypass reduction.

* :class:`~repro.core.engine.AbEngine` — synchronous component (Fig. 3),
  progress hook (Fig. 4) and asynchronous completion (Fig. 5)
* :class:`~repro.core.descriptor.ReduceDescriptor` /
  :class:`~repro.core.descriptor.DescriptorQueue` — intermediate state
* :class:`~repro.core.unexpected.AbUnexpectedQueue` — the custom one-copy
  unexpected queue
* :func:`~repro.core.delay.exit_delay_window` — the Sec. IV-E heuristic

The extensions an AB run does not arm are imported from their modules:
:mod:`.broadcast` (``AbBroadcast``), :mod:`.split_phase`
(``SplitPhaseReduce``) and :mod:`.nic_reduce` (``NicReduce``).
"""

from .delay import POLICIES, exit_delay_window
from .descriptor import DescriptorQueue, ReduceDescriptor
from .engine import AbEngine, AbStats
from .unexpected import AbUnexpectedEntry, AbUnexpectedQueue

__all__ = [
    "AbEngine", "AbStats",
    "ReduceDescriptor", "DescriptorQueue",
    "AbUnexpectedQueue", "AbUnexpectedEntry",
    "exit_delay_window", "POLICIES",
]
