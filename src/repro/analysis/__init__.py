"""Static analysis and runtime protocol-invariant checking.

Three layers keep the codebase safe to refactor aggressively:

* :mod:`repro.analysis.simlint` — an AST linter (stdlib ``ast`` only) for
  the hazards specific to a generator-driven deterministic simulator:
  dropped ``yield from``, wall-clock/ambient randomness, float equality on
  timestamps, unconsumed CPU ledgers, mutable defaults and late-binding
  loop captures;
* :mod:`repro.analysis.invariants` — a pluggable
  :class:`~repro.analysis.invariants.InvariantMonitor` that hooks the
  simulator, the GM NICs and the AB engines and checks the paper's Sec. IV
  descriptor/signal protocol and Sec. V copy accounting at runtime;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis`` with text/JSON
  output, wired into the tier-1 test suite.

simlint lints *this* repository: every registered rule runs, every finding
gates, and a finding that is meant to stay is suppressed where it is with
``# simlint: ignore[SIMnnn]``.

The package re-exports only the monitor: the linter is imported from
:mod:`.simlint`, so a simulation that arms a monitor never loads it.
"""

from .findings import Finding, Violation, normalize_path
from .invariants import ASSERT, COLLECT, InvariantMonitor

__all__ = [
    "ASSERT", "COLLECT",
    "Finding", "Violation", "normalize_path",
    "InvariantMonitor",
]
