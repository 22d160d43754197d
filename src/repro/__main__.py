"""``python -m repro``: version banner and a map of the entry points."""

from __future__ import annotations

import sys

from . import __version__


def main() -> int:
    print(f"repro {__version__} — Application-Bypass Reduction for "
          "Large-Scale Clusters (CLUSTER 2003), simulation reproduction")
    print()
    print("entry points:")
    print("  python -m repro.experiments <name|all>  # all: every claim")
    print("  python -m repro.orchestrate smoke [grid] # the CI grids")
    print("  pytest tests/                       # unit/integration/property")
    print("  python examples/quickstart.py       # (and 8 more examples)")
    print()
    print("docs: README.md, DESIGN.md (system inventory), "
          "EXPERIMENTS.md (paper-vs-measured)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
