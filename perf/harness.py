"""Measuring one workload in one process: passes, checks, counts, spans.

``measure`` is what a worker process runs.  It builds the workload's inputs
from the seed, proves the kinds that do not check themselves against numpy,
runs one warm-up pass and then timed passes for ``seconds`` (at least
``repeats``), and checks every output.  With ``traced`` it adds one pass
under the profile hook, the isolated probes and the calibration loop; the
end-to-end numbers never come from the traced pass.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager

from perf import probes, schema, trace
from perf.workloads import EXPECTED_DIR, HERE, PassContext, resolve

RESULTS_DIR = os.path.join(HERE, "results")
#: Failure causes, in the order the report lists them.
CAUSES = ("raised", "nondeterministic", "violations", "pin", "oracle")
MAX_LISTED = 20


class Spans:
    """The harness's own spans (workload → pass → point), kept in memory
    and written out when the run ends."""

    def __init__(self):
        self.rows = []

    def add(self, name: str, parent, start: float, end: float) -> int:
        self.rows.append({"id": len(self.rows) + 1, "parent": parent,
                          "name": name, "start": start, "end": end})
        return len(self.rows)

    @contextmanager
    def span(self, name: str, parent=None):
        row = {"id": len(self.rows) + 1, "parent": parent, "name": name,
               "start": time.perf_counter(), "end": None}
        self.rows.append(row)
        try:
            yield row["id"]
        finally:
            row["end"] = time.perf_counter()


def summary(values) -> dict:
    """Median with quartiles and the sample count (quartiles need two)."""
    values = list(values)
    out = {"value": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class _Token:
    """What the allocating calibration loop creates: event-sized objects."""

    __slots__ = ("time", "seq", "fn", "args")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args


def _tight_loop_s() -> float:
    """Heap push/pop, generator ``send`` and dict update on a working set
    that fits the first-level cache."""
    def echo():
        value = 0
        while True:
            value = yield value

    gen = echo()
    next(gen)
    heap, table = [], {}
    t0 = time.perf_counter()
    for i in range(schema.CALIBRATION_LOOPS):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        if len(heap) > 512:
            heapq.heappop(heap)
        table[i & 1023] = gen.send(i)
    return time.perf_counter() - t0


def _allocating_loop_s() -> float:
    """The same heap traffic with an object, a tuple and a string allocated
    per step, 20k of them kept alive at scattered addresses, and a call
    through a bound method per pop."""
    counts: dict = {}

    def hit(key, value):
        counts[key] = counts.get(key, 0) + value

    heap, pool = [], [None] * 20_000
    t0 = time.perf_counter()
    for i in range(schema.CALIBRATION_LOOPS // 2):
        token = _Token(float((i * 7919) % 10007), i, hit, (i & 1023, 1))
        pool[(i * 48271) % len(pool)] = token
        heapq.heappush(heap, (token.time, token.seq, token))
        if len(heap) > 512:
            popped = heapq.heappop(heap)[2]
            popped.fn(*popped.args)
        counts[f"k{i & 255}"] = i
    return time.perf_counter() - t0


def calibration_s() -> float:
    """A fixed pure-Python workload — the geometric mean of two loops, one
    bound by the interpreter and one by allocation and memory — that takes
    ``schema.CALIBRATION_REF_S`` on the reference box.

    The box this benchmark runs on changes speed by a quarter for tens of
    seconds at a time (busy neighbours), which no amount of repetition
    inside a ten-second run averages out.  The loops are timed before and
    after every pass and every set-up spawn, and each timing is scaled by
    ``CALIBRATION_REF_S / (mean of the two neighbours)``: seconds at the
    reference speed.  Two loops, because neighbours slow tight code and
    allocating code by different amounts and the simulator is a mix of
    both; over sixteen five-pass runs per workload the pair held the
    quartile distance of the medians to 1.5-4.8 % where one loop gave
    2.2-8.6 % and raw seconds 3.9-13.9 %.  Raw seconds are kept beside the
    scaled ones."""
    return math.sqrt(_tight_loop_s() * _allocating_loop_s())


def calibrated(timings, calibrations) -> list:
    """``timings[i]`` was taken between ``calibrations[i]`` and ``[i + 1]``;
    returns the timings in seconds at the reference speed."""
    return [t * schema.CALIBRATION_REF_S
            / ((calibrations[i] + calibrations[i + 1]) / 2.0)
            for i, t in enumerate(timings)]


# ---------------------------------------------------------------------------
# the numpy oracle for kinds that do not check their own results
# ---------------------------------------------------------------------------

ORACLE_KINDS = ("latency", "tenancy")


def oracle_cases(items) -> list:
    """Distinct (config, build, elements) among the unchecked kinds."""
    cases = {}
    for point in items:
        if getattr(point, "kind", None) in ORACLE_KINDS:
            cases.setdefault((point.config, point.build, point.elements),
                             point)
    return list(cases.values())


def run_oracle(point, seed: int) -> str:
    """Reduce and allreduce rank-distinct integer-valued float64 data on
    the point's cluster and compare bit-exactly with numpy; returns the
    mismatch, or an empty string.  Integer values make the sum exact in any
    fold order, so only misplaced or dropped data can differ — a
    mis-ordered segment fails here, not in a figure."""
    import numpy as np
    run_program = resolve("repro.runtime:run_program")
    build = resolve("repro.orchestrate.points:build_from_tag")(point.build)
    SUM = resolve("repro.mpich.operations:SUM")
    config = point.config.build()
    rng = np.random.default_rng([seed, config.size, point.elements])
    table = rng.integers(-1000, 1000, size=(config.size, point.elements)
                         ).astype(np.float64)
    expected = table.sum(axis=0)

    def program(mpi):
        reduced = yield from mpi.reduce(table[mpi.rank].copy(), op=SUM, root=0)
        everywhere = yield from mpi.allreduce(table[mpi.rank].copy(), op=SUM)
        return (None if reduced is None else np.array(reduced),
                np.array(everywhere))

    out = run_program(config, program, build=build)
    if not np.array_equal(out.results[0][0], expected):
        return "reduce at the root differs from numpy"
    for rank, (_, everywhere) in enumerate(out.results):
        if not np.array_equal(everywhere, expected):
            return f"allreduce at rank {rank} differs from numpy"
    return ""


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------

def pin_path(workload: str, seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.seed{seed}.json")


def pinned_metrics(records) -> dict:
    return {r.label: r.metrics for r in records}


def load_pin(workload: str, seed: int):
    try:
        with open(pin_path(workload, seed)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# one workload, one process
# ---------------------------------------------------------------------------

class Failures:
    """Failed units by cause, counted once per (pass, unit)."""

    def __init__(self):
        self.by_cause = {cause: [] for cause in CAUSES}
        self.count = 0

    def add(self, cause: str, where: str, detail: str = "") -> None:
        self.count += 1
        listed = self.by_cause[cause]
        if len(listed) < MAX_LISTED:
            listed.append(f"{where}: {detail}" if detail else where)


def _check_pass(records, reference, tag: str, failures: Failures) -> None:
    """A unit fails when it raised, when an armed point reports a
    violation, or when its deterministic metrics differ from the warm-up
    pass's."""
    expected = pinned_metrics(reference)
    for rec in records:
        where = f"{tag} {rec.label}"
        if rec.error:
            failures.add("raised", where, rec.error)
        elif rec.violations:
            failures.add("violations", where, f"{rec.violations} violation(s)")
        elif rec.metrics != expected.get(rec.label):
            failures.add("nondeterministic", where)


def exact_counts(records, extra_counts: dict) -> dict:
    """The per-layer exact-count rows, summed over one pass's records."""
    def of(rec, source, key):
        field = getattr(rec, key if source == "record" else source)
        return field if source == "record" else field.get(key, 0)

    return {name: int(extra_counts.get(key, 0) if source == "extra" else
                      sum(of(rec, source, key) for rec in records))
            for name, (source, key) in schema.EXACT_COUNTS.items()}


def per_layer_rows(result: dict, extra: dict, table: dict,
                   traced_wall_s: float, probed: dict,
                   unresolved: int) -> dict:
    """Every per-layer metric of a traced run, by its contract name."""
    rows = dict(result["counts"])
    events, work = rows["sim.events"], result["work"]
    wall_s = result["end_to_end"]["wall_s"]["value"]
    rows["sim.host_ns_per_event"] = wall_s / events * 1e9 if events else 0.0
    rows["sim.events_per_work"] = events / work if work else 0.0
    sweep_wall = extra.get("sweep_wall_s")
    rows["orchestrate.overhead_share"] = (
        1.0 - extra["points_wall_s"] / sweep_wall if sweep_wall else 0.0)
    rows["host.calibration_s"] = result["raw"]["calibration_s"]["value"]
    for layer, row in table["layers"].items():
        rows[f"{layer}.self_s"] = row["self_s"]
        rows[f"{layer}.calls_in"] = row["calls_in"]
    rows["trace.overhead_x"] = traced_wall_s / wall_s
    rows["trace.unattributed_share"] = table["unattributed_share"]
    rows["trace.unresolved"] = unresolved
    rows.update(probed)
    return rows


def measure(workload, seed: int, *, seconds: float, repeats: int,
            quick: bool = False, traced: bool = False, execute=None,
            pin: bool = False) -> dict:
    """Run ``workload`` in this process; returns the result dict that
    ``run.py`` prints and stores (see the README for its shape)."""
    spans = Spans()
    failures = Failures()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    scratch_root = tempfile.mkdtemp(prefix="tmp_", dir=RESULTS_DIR)

    def one_pass(parent, name):
        scratch = tempfile.mkdtemp(prefix="pass_", dir=scratch_root)
        with spans.span(name, parent) as span_id:
            ctx = PassContext(execute=execute, spans=spans, parent=span_id,
                              scratch=scratch)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            records, extra = workload.run_pass(items, ctx)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        return records, extra, wall, cpu

    try:
        with spans.span(workload.name) as root:
            with spans.span("set-up", root):
                items = workload.items(seed, quick)
                workload.setup(items)
            attempted = 0
            with spans.span("oracle", root):
                for point in oracle_cases(items):
                    attempted += 1
                    mismatch = run_oracle(point, seed)
                    if mismatch:
                        failures.add("oracle", point.label(), mismatch)

            reference, extra, _, _ = one_pass(root, "warm-up pass")
            attempted += len(reference)
            _check_pass(reference, reference, "warm-up", failures)
            pinned = None if quick else load_pin(workload.name, seed)
            if pin:
                os.makedirs(EXPECTED_DIR, exist_ok=True)
                with open(pin_path(workload.name, seed), "w") as fh:
                    json.dump(pinned_metrics(reference), fh, indent=1,
                              sort_keys=True)
                    fh.write("\n")
            elif pinned is not None:
                now = pinned_metrics(reference)
                for label in sorted(set(pinned) | set(now)):
                    if pinned.get(label) != now.get(label):
                        failures.add("pin", label)

            walls, cpus, cals = [], [], [calibration_s()]
            # a traced run takes two untraced passes, for the counts and
            # the base of trace.overhead_x; its time goes to the traced pass
            if traced:
                seconds, repeats = 0.0, 2
            deadline = time.perf_counter() + seconds
            while len(walls) < repeats or time.perf_counter() < deadline:
                records, extra, wall, cpu = one_pass(
                    root, f"timed pass {len(walls) + 1}")
                attempted += len(records)
                _check_pass(records, reference, f"pass {len(walls) + 1}",
                            failures)
                walls.append(wall)
                cpus.append(cpu)
                cals.append(calibration_s())
            extra_counts = workload.after(items, extra)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

            work = workload.work(items, reference)
            scaled_walls = calibrated(walls, cals)
            result = {
                "workload": workload.name, "seed": seed, "quick": quick,
                "work": work, "work_unit": workload.work_unit,
                "end_to_end": {
                    "wall_s": summary(scaled_walls),
                    "cpu_s": summary(calibrated(cpus, cals)),
                    "work_per_s": summary(work / w for w in scaled_walls),
                    "peak_rss_mb": {"value": peak_rss_mb, "n": 1},
                },
                "raw": {"wall_s": summary(walls), "cpu_s": summary(cpus),
                        "calibration_s": summary(cals)},
                "counts": exact_counts(reference, extra_counts),
            }

            if traced:
                (records, _, traced_wall, _), _, table = trace.traced(
                    lambda: one_pass(root, "traced pass"))
                traced_wall, = calibrated(
                    [traced_wall], [cals[-1], calibration_s()])
                attempted += len(records)
                _check_pass(records, reference, "traced pass", failures)
                with spans.span("probes", root):
                    probed, unresolved = probes.run_all(
                        seed, os.path.join(scratch_root, "probes"))
                unresolved += trace.unresolved_prefixes()
                result["per_layer"] = per_layer_rows(
                    result, extra, table, traced_wall, probed,
                    len(unresolved))
                result["unresolved"] = unresolved
    finally:
        shutil.rmtree(scratch_root, ignore_errors=True)

    result["attempted"] = attempted
    result["failed"] = failures.count
    result["fail_share"] = failures.count / attempted if attempted else 1.0
    result["failures"] = {cause: listed for cause, listed
                          in failures.by_cause.items() if listed}
    result["spans"] = spans.rows
    return result
