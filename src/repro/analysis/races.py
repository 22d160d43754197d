"""Determinism race detector (dynamic layers of the sanitizer).

Two complementary checkers for *schedule races* — places where a
simulation's result silently depends on the arbitrary FIFO tiebreak among
same-timestamp events:

1. **Schedule-perturbation harness** (:func:`check_points` /
   ``python -m repro.analysis.races``): run a scenario once under the
   default FIFO schedule and N more times under seeded tiebreak-shuffle
   schedules (:mod:`repro.sim.events`), then diff metrics, simulator
   counters and invariant reports bit-for-bit.  Any divergence is a
   *confirmed* race: same inputs, same seeds, different answer — only the
   same-time event order changed.

2. **Happens-before checker** (:class:`HappensBeforeTracer`): an opt-in
   :class:`~repro.sim.access.AccessTracer` that records, per event, every
   read/write of shared engine state (descriptor tables, fold buffers, NIC
   RX queues, AB unexpected queues) plus the schedule DAG (which event
   scheduled which).  Two same-timestamp events with conflicting accesses
   and no scheduling ancestry between them are a *latent* race: this run
   happened to agree, but nothing orders them.  Latent conflicts are
   reported with both events' scheduling-ancestry chains so the race is
   debuggable without re-running.

The perturbation verdict gates CI (``race-smoke``); the happens-before
report is diagnostic — it explains a divergence, and surfaces races the
tried permutations did not happen to expose.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..config import check_name
from ..sim.access import (READ, WRITE, Location, get_access_tracer,
                          set_access_tracer)
from ..sim.events import tiebreak_key

EXIT_CLEAN = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2

# ---------------------------------------------------------------------------
# happens-before tracer
# ---------------------------------------------------------------------------


@dataclass
class Access:
    """One traced read/write of shared state."""

    kind: str                  # repro.sim.access.READ | WRITE
    location: Location
    order_sensitive: bool
    note: str


@dataclass
class EventRecord:
    """One simulation event, as the tracer saw it."""

    idx: int                   # tracer-assigned id, unique across queues
    seq: int                   # queue-local insertion counter
    time: float                # scheduled (then actual) fire time
    label: str                 # callback __qualname__
    parent: Optional[int]      # idx of the event that scheduled this one
    priority: int = 0          # same-instant class (repro.sim.events)
    executed: bool = False
    accesses: list[Access] = field(default_factory=list)


@dataclass
class Conflict:
    """Two same-timestamp, causally unordered events touching the same
    shared state, at least one writing."""

    time: float
    location: Location
    a: EventRecord
    b: EventRecord
    kinds: tuple[str, str]     # the conflicting access kinds (a, b)
    notes: tuple[str, str]

    def signature(self) -> tuple:
        """Dedup key: the *pattern*, not the instance."""
        return (self.location, self.a.label, self.b.label, self.kinds)

    def to_dict(self, tracer: "HappensBeforeTracer") -> dict:
        return {
            "time": self.time,
            "location": list(self.location),
            "events": [
                {"label": rec.label, "seq": rec.seq, "kind": kind,
                 "note": note, "stack": tracer.ancestry(rec)}
                for rec, kind, note in ((self.a, self.kinds[0], self.notes[0]),
                                        (self.b, self.kinds[1], self.notes[1]))
            ],
        }


class HappensBeforeTracer:
    """Concrete :class:`~repro.sim.access.AccessTracer` that reconstructs
    the schedule DAG and flags unordered conflicting accesses.

    Install with :func:`repro.sim.access.set_access_tracer` (or use
    :func:`trace_point`), run the simulation, then call
    :meth:`find_conflicts`.
    """

    #: Events considered per same-(time, location) group; a wider group is
    #: truncated (and noted) to keep pair checking linear in practice.
    MAX_GROUP = 16

    def __init__(self) -> None:
        self.records: list[EventRecord] = []
        #: Live (scheduled, not yet begun) events by python id.  Entries
        #: are popped at begin so a recycled id cannot resolve stale.
        self._by_id: dict[int, EventRecord] = {}
        self._current: Optional[EventRecord] = None
        self.truncated_groups = 0

    # -- AccessTracer interface -------------------------------------------
    def on_event_scheduled(self, event: Any) -> None:
        rec = EventRecord(
            idx=len(self.records), seq=event.seq, time=event.time,
            label=event.label(),
            parent=None if self._current is None else self._current.idx,
            priority=getattr(event, "priority", 0))
        self.records.append(rec)
        self._by_id[id(event)] = rec

    def on_event_begin(self, event: Any) -> None:
        rec = self._by_id.pop(id(event), None)
        if rec is None:
            # Scheduled before the tracer was installed.
            rec = EventRecord(idx=len(self.records), seq=event.seq,
                              time=event.time, label=event.label(),
                              parent=None)
            self.records.append(rec)
        rec.time = event.time
        rec.executed = True
        self._current = rec

    def on_access(self, kind: str, location: Location, *,
                  order_sensitive: bool = True, note: str = "") -> None:
        if self._current is not None:
            self._current.accesses.append(
                Access(kind, location, order_sensitive, note))

    # -- analysis ---------------------------------------------------------
    def ancestry(self, rec: EventRecord, *, depth: int = 8) -> list[str]:
        """The event's scheduling-ancestry chain, innermost first —
        the discrete-event analogue of a stack trace."""
        chain = []
        cur: Optional[EventRecord] = rec
        while cur is not None and len(chain) < depth:
            chain.append(f"t={cur.time:.3f} {cur.label} (seq {cur.seq})")
            cur = None if cur.parent is None else self.records[cur.parent]
        if cur is not None:
            chain.append("...")
        return chain

    def _ordered(self, a: EventRecord, b: EventRecord) -> bool:
        """True when the pair has a defined same-time order: different
        priority classes (deliveries < wake-ups < timers, a total order by
        construction) or one event is a scheduling ancestor of the other
        (if A scheduled B, A necessarily popped first)."""
        if a.priority != b.priority:
            return True
        for start, target in ((a, b.idx), (b, a.idx)):
            cur: Optional[EventRecord] = start
            while cur is not None:
                if cur.idx == target:
                    return True
                cur = None if cur.parent is None else self.records[cur.parent]
        return False

    def find_conflicts(self, *, max_conflicts: int = 50) -> list[Conflict]:
        """All distinct unordered same-time conflicts, deduped by access
        pattern ``(location, label_a, label_b, kinds)``."""
        # (time, location) -> [(record, access)]
        groups: dict[tuple, list[tuple[EventRecord, Access]]] = {}
        for rec in self.records:
            if not rec.executed:
                continue
            for acc in rec.accesses:
                groups.setdefault((rec.time, acc.location), []).append(
                    (rec, acc))

        conflicts: list[Conflict] = []
        seen: set[tuple] = set()
        for (time, location), entries in sorted(
                groups.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))):
            # One access per event per group is enough for pairing.
            per_event: dict[int, tuple[EventRecord, Access]] = {}
            for rec, acc in entries:
                prev = per_event.get(rec.idx)
                # Prefer a write (and among those, an order-sensitive one)
                # as the event's representative access.
                if (prev is None
                        or (acc.kind == WRITE) > (prev[1].kind == WRITE)
                        or (acc.kind == prev[1].kind
                            and acc.order_sensitive
                            and not prev[1].order_sensitive)):
                    per_event[rec.idx] = (rec, acc)
            if len(per_event) < 2:
                continue
            group = sorted(per_event.values(), key=lambda ra: ra[0].idx)
            if len(group) > self.MAX_GROUP:
                self.truncated_groups += 1
                group = group[:self.MAX_GROUP]
            for i, (ra, aa) in enumerate(group):
                for rb, ab in group[i + 1:]:
                    if aa.kind != WRITE and ab.kind != WRITE:
                        continue
                    if not (aa.order_sensitive or ab.order_sensitive):
                        continue
                    conflict = Conflict(time=time, location=location,
                                        a=ra, b=rb,
                                        kinds=(aa.kind, ab.kind),
                                        notes=(aa.note, ab.note))
                    if conflict.signature() in seen:
                        continue
                    if self._ordered(ra, rb):
                        continue
                    seen.add(conflict.signature())
                    conflicts.append(conflict)
                    if len(conflicts) >= max_conflicts:
                        return conflicts
        return conflicts


def trace_point(point: Any) -> "HappensBeforeTracer":
    """Re-run one sweep point under the happens-before tracer and return
    the populated tracer (serial, in-process)."""
    from ..orchestrate.points import execute_point
    tracer = HappensBeforeTracer()
    prev = get_access_tracer()
    set_access_tracer(tracer)
    try:
        execute_point(point)
    finally:
        set_access_tracer(prev)
    return tracer


# ---------------------------------------------------------------------------
# perturbation harness
# ---------------------------------------------------------------------------

def perturbation_seeds(seed: int, runs: int) -> list[int]:
    """The tiebreak seeds for one harness invocation: a pure, well-spread
    function of (base seed, run index), so reports are reproducible."""
    return [tiebreak_key(seed, i + 1) for i in range(runs)]


def _capture(result: Any) -> dict:
    """The comparable face of one PointResult: everything that must be
    bit-identical across schedules (host wall time excluded)."""
    cap: dict[str, Any] = {"metrics": dict(result.metrics),
                           "counters": dict(result.counters)}
    if result.invariant_report is not None:
        cap["invariants"] = {
            "checks": result.invariant_report["checks"],
            "violation_count": result.invariant_report["violation_count"],
            "violations": result.invariant_report["violations"],
        }
    return cap


def diff_captures(base: Any, other: Any, path: str = "") -> list[dict]:
    """Recursive exact diff of two captures; each divergence names its
    path and both values."""
    if isinstance(base, dict) and isinstance(other, dict):
        out = []
        for key in sorted(set(base) | set(other), key=repr):
            sub = f"{path}.{key}" if path else str(key)
            if key not in base:
                out.append({"path": sub, "baseline": None,
                            "perturbed": other[key]})
            elif key not in other:
                out.append({"path": sub, "baseline": base[key],
                            "perturbed": None})
            else:
                out.extend(diff_captures(base[key], other[key], sub))
        return out
    if isinstance(base, (list, tuple)) and isinstance(other, (list, tuple)):
        out = []
        if len(base) != len(other):
            out.append({"path": f"{path}.len", "baseline": len(base),
                        "perturbed": len(other)})
        for i, (a, b) in enumerate(zip(base, other)):
            out.extend(diff_captures(a, b, f"{path}[{i}]"))
        return out
    equal = (base == other) or (base != base and other != other)  # NaN==NaN
    if equal and type(base) is type(other):
        return []
    return [{"path": path, "baseline": base, "perturbed": other}]


@dataclass
class PointVerdict:
    """Perturbation result for one sweep point."""

    label: str
    key: dict
    clean: bool
    #: Per diverging perturbed run: tiebreak seed + exact diffs.
    divergences: list[dict]
    #: Latent (or confirming) happens-before conflicts, when HB ran.
    conflicts: list[dict] = field(default_factory=list)
    hb_truncated_groups: int = 0

    def to_dict(self) -> dict:
        return {"label": self.label, "key": self.key, "clean": self.clean,
                "divergences": self.divergences,
                "conflicts": self.conflicts,
                "hb_truncated_groups": self.hb_truncated_groups}


def check_points(points: list, *, runs: int = 8, seed: int = 1,
                 jobs: int = 1, hb: str = "on-divergence",
                 max_diffs_per_run: int = 20,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> list[PointVerdict]:
    """Run every point under FIFO + ``runs`` shuffled schedules and
    return one verdict per point.

    ``hb``: ``"never"`` | ``"on-divergence"`` (default: explain diverging
    points with the happens-before checker) | ``"always"`` (also surface
    latent conflicts on clean points).
    """
    from ..orchestrate.runner import run_points
    seeds = perturbation_seeds(seed, runs)
    batch = []
    for point in points:
        batch.append(replace(point, tiebreak_seed=None))
        batch.extend(replace(point, tiebreak_seed=s) for s in seeds)
    results = run_points(batch, jobs=jobs, progress=progress)

    verdicts = []
    stride = 1 + runs
    for i, point in enumerate(points):
        group = results[i * stride:(i + 1) * stride]
        baseline = _capture(group[0])
        divergences = []
        for tb_seed, res in zip(seeds, group[1:]):
            diffs = diff_captures(baseline, _capture(res))
            if diffs:
                divergences.append({
                    "tiebreak_seed": tb_seed,
                    "diffs": diffs[:max_diffs_per_run],
                    "diff_count": len(diffs),
                })
        verdict = PointVerdict(label=point.label(), key=point.key(),
                               clean=not divergences,
                               divergences=divergences)
        if hb == "always" or (hb == "on-divergence" and divergences):
            tracer = trace_point(replace(point, tiebreak_seed=None))
            conflicts = tracer.find_conflicts()
            verdict.conflicts = [c.to_dict(tracer) for c in conflicts]
            verdict.hb_truncated_groups = tracer.truncated_groups
        verdicts.append(verdict)
        if progress is not None:
            state = "clean" if verdict.clean else (
                f"DIVERGED in {len(divergences)}/{runs} schedules")
            progress(f"[races] {point.label()}: {state}")
    return verdicts


# ---------------------------------------------------------------------------
# scenario registry + CLI
# ---------------------------------------------------------------------------

def scenario_points(name: str, *, seed: int = 1,
                    iterations: Optional[int] = None) -> list:
    """The sweep points behind a named scenario: every grid registered in
    :data:`repro.orchestrate.points.GRIDS` is one."""
    from ..orchestrate.points import GRIDS
    check_name("scenario", name, GRIDS)
    return GRIDS[name].points(seed=seed, iterations=iterations)


def build_report(scenario: str, verdicts: list[PointVerdict], *,
                 runs: int, seed: int) -> dict:
    dirty = [v for v in verdicts if not v.clean]
    return {
        "schema": 1,
        "tool": "repro.analysis.races",
        "scenario": scenario,
        "runs_per_point": runs,
        "seed": seed,
        "points": len(verdicts),
        "diverged_points": len(dirty),
        "clean": not dirty,
        "verdicts": [v.to_dict() for v in verdicts],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.races",
        description="Schedule-perturbation determinism sanitizer: re-run a "
                    "scenario under shuffled same-time event orders and "
                    "fail on any bit-level divergence.")
    parser.add_argument("--scenario", action="append", default=None,
                        help="registered grid to check (repeatable); "
                             "default: every grid, the minutes-long scale "
                             "grid included")
    parser.add_argument("--runs", type=int, default=8,
                        help="perturbed schedules per point (default 8)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed for the schedule permutations")
    parser.add_argument("--iterations", type=int, default=None,
                        help="override per-point benchmark iterations")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default serial)")
    parser.add_argument("--hb", choices=("never", "on-divergence", "always"),
                        default="on-divergence",
                        help="when to run the happens-before checker")
    parser.add_argument("--out", default=None,
                        help="write the JSON race report to this file")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress per-point progress lines")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    from ..orchestrate.points import GRIDS
    scenarios = args.scenario or list(GRIDS)
    progress = None if args.quiet else (
        lambda msg: print(msg, file=sys.stderr))
    reports = []
    any_dirty = False
    for name in scenarios:
        try:
            points = scenario_points(name, seed=args.seed,
                                     iterations=args.iterations)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        verdicts = check_points(points, runs=args.runs, seed=args.seed,
                                jobs=args.jobs, hb=args.hb,
                                progress=progress)
        report = build_report(name, verdicts, runs=args.runs,
                              seed=args.seed)
        reports.append(report)
        any_dirty = any_dirty or not report["clean"]

    out_doc = reports[0] if len(reports) == 1 else {
        "schema": 1, "tool": "repro.analysis.races",
        "clean": not any_dirty, "scenarios": reports}
    text = json.dumps(out_doc, indent=2, sort_keys=True, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    for report in reports:
        for verdict in report["verdicts"]:
            if verdict["clean"]:
                continue
            print(f"SCHEDULE RACE: {verdict['label']} diverged in "
                  f"{len(verdict['divergences'])}/{report['runs_per_point']} "
                  f"perturbed schedules", file=sys.stderr)
            for conflict in verdict["conflicts"][:3]:
                loc = conflict["location"]
                print(f"  unordered same-time conflict on {loc} "
                      f"at t={conflict['time']:.3f}:", file=sys.stderr)
                for ev in conflict["events"]:
                    print(f"    [{ev['kind']}] {ev['note'] or ev['label']}",
                          file=sys.stderr)
                    for frame in ev["stack"]:
                        print(f"      {frame}", file=sys.stderr)
    return EXIT_DIVERGED if any_dirty else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
