"""repro.faults — deterministic, seeded fault injection (see DESIGN.md §10).

Public surface:

- :class:`FaultSchedule` — compiled from ``config.faults``; installs armed
  injectors into a cluster and doubles as the deterministic crash oracle.
- ``INJECTORS`` / :func:`register_injector` — the extension registry
  (mirrors ``repro.topo``).
- :class:`FaultInjector` — base class for new injectors.

With ``FaultParams`` at defaults nothing here is ever imported by the
runtime, and a fault-free run is bit-identical to one without this package.
"""

from .base import (FaultInjector, FaultSchedule, INJECTORS,
                   register_injector)
from . import injectors as _builtin_injectors  # noqa: F401  (registration)

__all__ = [
    "FaultInjector",
    "FaultSchedule",
    "INJECTORS",
    "register_injector",
]
