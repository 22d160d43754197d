"""Shared plumbing for the figure-reproduction drivers.

Every experiment module exposes ``run(**kwargs) -> ExperimentOutput``; the
``EXPERIMENTS`` table in the package gives each its banner title and
default iteration count, and :func:`main` is the one CLI behind::

    python -m repro.experiments <experiment|all> [flags]
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..bench.report import Table
from ..orchestrate.benchjson import write_bench_json
from ..orchestrate.points import PointResult

#: The paper's node counts (Figs. 7-9) and message sizes (Figs. 6-8).
PAPER_SIZES = (2, 4, 8, 16, 32)
PAPER_ELEMENTS = (4, 32, 128)
#: Fig. 6 skew axis (paper: 0..1000 us).
PAPER_SKEWS = (0.0, 200.0, 400.0, 600.0, 800.0, 1000.0)
#: Fig. 10 message-size axis (paper: 1..128 elements).
PAPER_MSG_SIZES = (1, 8, 16, 32, 48, 64, 96, 128)


@dataclass(frozen=True)
class Claim:
    """One shape claim of the paper (or of a beyond-paper study) as this
    run measured it: the finding, numbers included, and whether it held."""

    text: str
    holds: bool

    def __str__(self) -> str:
        return self.text if self.holds else f"FAILS: {self.text}"


@dataclass
class ExperimentOutput:
    """Tables, checked claims and free-form notes from one experiment
    driver.  A claim is a verdict (``benchmarks/bench_claims.py`` asserts
    every one holds); a note only reports."""

    name: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Orchestrator point results (key, metrics, wall time) for the sweeps
    #: behind the tables — the payload of BENCH_<name>.json.
    points: list[PointResult] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)

    def claim(self, text: str, holds) -> None:
        """Record one claim; ``holds`` may be any truth value (a numpy
        bool included)."""
        self.claims.append(Claim(text, bool(holds)))

    def add(self, part: "ExperimentOutput") -> None:
        """Append one study's tables, points, claims and notes."""
        self.tables += part.tables
        self.points += part.points
        self.claims += part.claims
        self.notes += part.notes

    def render(self) -> str:
        parts = []
        for table in self.tables:
            parts.append(table.render())
            parts.append("")
        lines = [*map(str, self.claims), *self.notes]
        if lines:
            parts.append("Notes:")
            parts.extend(f"  - {line}" for line in lines)
        return "\n".join(parts)


def claim_segmentation(out: ExperimentOutput, label: str, seg: int,
                       elements: Sequence[int], whole: dict,
                       piped: dict) -> None:
    """The two claims of segment size ``seg`` (bytes) over message sizes
    ``elements`` (doubles): a message that fits one chunk runs
    bit-identical to the whole-message path, and the largest one, if it
    segments, runs faster.  ``whole``/``piped`` map each build to its
    latency series along ``elements``."""
    fits = [i for i, e in enumerate(elements) if e * 8 <= seg]
    if fits:
        out.claim(f"{label}a one-chunk plan is bit-identical: segment {seg}B "
                  "equals whole-message at "
                  f"{[elements[i] for i in fits]} elements on both builds",
                  all(piped[b][i] == whole[b][i] for b in whole for i in fits))
    if elements[-1] * 8 > seg:
        out.claim(f"{label}segment {seg}B beats whole-message at "
                  f"{elements[-1]} elements: " + ", ".join(
                      f"{b} {whole[b][-1]:.1f} -> {piped[b][-1]:.1f}us "
                      f"({whole[b][-1] / piped[b][-1]:.2f}x)" for b in whole),
                  all(piped[b][-1] < whole[b][-1] for b in whole))


def make_parser(description: str, *, default_iterations: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--iterations", type=int, default=default_iterations,
                        help="measured iterations per data point "
                             f"(default {default_iterations}; the paper "
                             "used 10,000 on noisy real hardware — virtual "
                             "time needs far fewer)")
    parser.add_argument("--seed", type=int, default=1,
                        help="master RNG seed (default 1)")
    parser.add_argument("--quick", action="store_true",
                        help="cut iterations ~4x for a fast smoke run")
    parser.add_argument("--jobs", type=int,
                        default=int(os.environ.get("REPRO_JOBS", "1")),
                        help="worker processes for the sweep (default "
                             "$REPRO_JOBS or 1; metrics are bit-identical "
                             "for any value)")
    parser.add_argument("--bench-json", nargs="?", const="auto",
                        default=None, metavar="PATH",
                        help="write the sweep's BENCH_<name>.json perf "
                             "record (default path BENCH_<name>.json in "
                             "the current directory)")
    return parser


def effective_iterations(args: argparse.Namespace) -> int:
    iters = args.iterations
    if args.quick:
        iters = max(5, iters // 4)
    return iters


def print_progress(line: str) -> None:
    print(f"    {line}", flush=True)


def maybe_write_bench_json(out: ExperimentOutput,
                           args: argparse.Namespace) -> None:
    """Honour --bench-json: record the sweep for the bit-identity gate
    (``python -m repro.orchestrate.compare OLD NEW``)."""
    if getattr(args, "bench_json", None) is None:
        return
    if not out.points:
        print(f"(no orchestrated points in {out.name}; BENCH json skipped)")
        return
    path = None if args.bench_json == "auto" else args.bench_json
    written = write_bench_json(out.name, out.points, path=path,
                               jobs=getattr(args, "jobs", 1))
    print(f"wrote {written}")


def banner(title: str) -> None:
    print()
    print(f"### {title}")
    print()


def main(name: str, argv: Optional[list[str]] = None) -> ExperimentOutput:
    """Parse the common flags (plus the experiment module's
    ``EXTRA_ARGUMENTS``, if any), run ``EXPERIMENTS[name]`` and render."""
    from . import EXPERIMENTS
    run, title, default_iterations = EXPERIMENTS[name]
    module = sys.modules[run.__module__]
    parser = make_parser(module.__doc__.splitlines()[0],
                         default_iterations=default_iterations)
    extra = [parser.add_argument(flag, **spec).dest
             for flag, spec in getattr(module, "EXTRA_ARGUMENTS", ())]
    args = parser.parse_args(argv)
    banner(title)
    out = run(iterations=effective_iterations(args), seed=args.seed,
              jobs=args.jobs, progress=print_progress,
              **{dest: getattr(args, dest) for dest in extra})
    print(out.render())
    maybe_write_bench_json(out, args)
    return out
