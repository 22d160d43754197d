"""Command-line front end: ``python -m repro.analysis [options] paths...``

Exit codes: 0 — no finding; 1 — findings (every one gates); 2 — usage
error (bad flags, missing paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .simlint import RULES, lint_paths

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: sim-aware static analysis for the repro "
                    "codebase")
    parser.add_argument("paths", nargs="*", help="files or directories")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the report (in the chosen "
                             "--format) to FILE, e.g. a CI artifact")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_CLEAN

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id]}")
        return EXIT_CLEAN

    if not args.paths:
        print("error: no paths given (try: python -m repro.analysis src/)",
              file=sys.stderr)
        return EXIT_USAGE
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: path(s) do not exist: {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_USAGE

    findings = lint_paths(args.paths)

    if args.format == "json":
        counts: dict[str, int] = {}
        for finding in findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        output = json.dumps({
            "version": 1,
            "findings": [f.to_dict() for f in findings],
            "counts": counts,
            "errors": len(findings),
        }, indent=2, sort_keys=True)
    else:
        lines = [f.render() for f in findings]
        lines.append(f"simlint: {len(findings)} finding(s)")
        output = "\n".join(lines)
    print(output)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output + "\n")

    return EXIT_FINDINGS if findings else EXIT_CLEAN
