"""CLI dispatcher: ``python -m repro.experiments <experiment> [flags]``.

Standard output is the record (``all`` prints EXPERIMENTS.md); progress
and file notices go to stderr.  Exit 1 when a claim does not hold.
"""

from __future__ import annotations

import sys

from ..config import RecordError
from . import EXPERIMENTS
from .common import header, make_parser, run_experiment


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
    names = list(EXPERIMENTS) if name == "all" else [name]
    args = make_parser(f"run {' '.join(names)}").parse_args(rest)
    if name == "all" and args.bench_json not in (None, "auto"):
        print("error: all writes one BENCH_<name>.json per driver; pass "
              "--bench-json without a PATH", file=sys.stderr)
        return 2
    if name == "all":
        print(header(args), flush=True)
    try:
        outs = [run_experiment(key, args) for key in names]
    except RecordError as exc:  # a point no sweep can make
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return int(any(not claim.holds for out in outs for claim in out.claims))


if __name__ == "__main__":
    raise SystemExit(main())
