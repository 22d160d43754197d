"""CLI dispatcher: ``python -m repro.experiments <experiment> [flags]``."""

from __future__ import annotations

import sys

from ..config import RecordError
from . import EXPERIMENTS
from .common import main as run_experiment


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        names = ", ".join(sorted(EXPERIMENTS))
        print("usage: python -m repro.experiments <experiment> [flags]")
        print(f"experiments: {names}, all")
        print("common flags: --iterations N --seed N --quick "
              "--jobs N --bench-json [PATH]")
        return 0
    name, rest = argv[0], argv[1:]
    if name != "all" and name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; "
              f"choose from {sorted(EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    try:
        for key in (EXPERIMENTS if name == "all" else [name]):
            run_experiment(key, rest)
    except RecordError as exc:  # a point no sweep can make
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
