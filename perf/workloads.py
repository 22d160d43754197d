"""The seven workloads: what each runs, how much, and what counts as work.

Every size constant lives in ``SIZES``.  A pass of each workload is sized
to roughly 1.5–2.2 s on the two-core box the benchmark was written on, so a
ten-second run holds five or more timed passes (``--quick`` divides every
size by ``QUICK_DIVISOR`` for the harness self-tests).

The simulator sees only the generated points: ``--seed`` feeds every
``ConfigSpec.seed`` / ``ClusterSpec.seed`` (noise, skew, arrival patterns,
loss bursts) and nothing else.

Names from ``repro`` are resolved when a workload is built, never at import,
so this module loads in any checkout and a later change that moves a
function shows up as one clear ``Unresolved`` error naming it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass, field, replace

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
#: The 59 CI smoke points, as ``SweepPoint.to_dict()`` records at seed 0,
#: written by ``run.py --pin`` from the repo's seven ``*_smoke_points``
#: builders.  ``smoke_sweep`` runs from this file so that it keeps measuring
#: the same grid when a later change replaces the builders.
SMOKE_GRID_FILE = os.path.join(EXPECTED_DIR, "smoke_grid.json")
SMOKE_BUILDERS = ("smoke_points", "topo_smoke_points", "faults_smoke_points",
                  "pipeline_smoke_points", "schedule_smoke_points",
                  "tenancy_smoke_points", "pap_smoke_points")

QUICK_DIVISOR = 20

SIZES = {
    "small_reduce_32": {"ranks": 32, "cpu_util_iterations": 40,
                        "latency_iterations": 27},
    # one warmed iteration is the floor: width, not length, is the point
    "scale_1024": {"ranks": 1024, "iterations": 1, "warmup": 0},
    "large_msg_pipeline": {"ranks": 32, "medium_iterations": 5,
                           "huge_ranks": 16, "huge_iterations": 2},
    "schedule_pap": {"ranks": 32, "schedule_iterations": 10,
                     "pap_iterations": 14},
    "contended_lossy": {"jobs": 8, "job_ranks": 4, "tenancy_iterations": 22,
                        "ranks": 32, "fault_iterations": 220},
    "smoke_sweep": {"seeds": 2},
    "schedule_compile": {"sizes": (32, 128), "wide": 512,
                         "pass_sizes": (32, 128)},
}


class Unresolved(RuntimeError):
    """A public ``repro`` name the benchmark needs is gone."""


def resolve(path: str):
    """Import ``"package.module:attr"`` now; raises :class:`Unresolved`."""
    module, _, attr = path.partition(":")
    try:
        obj = importlib.import_module(module)
        return getattr(obj, attr) if attr else obj
    except (ImportError, AttributeError) as exc:
        raise Unresolved(f"{path}: {exc}") from exc


def _scaled(n: int, quick: bool) -> int:
    return max(1, n // QUICK_DIVISOR) if quick else n


@dataclass
class Record:
    """One checked unit of a pass: a sweep point or a compiled schedule."""

    label: str
    #: Deterministic outputs; equal on every pass of one run and, for a
    #: pinned seed, to the committed file.
    metrics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    invariant_checks: int = 0
    violations: int = 0
    #: Non-empty when the unit raised; the text names the exception.
    error: str = ""


def record_of(label: str, result) -> Record:
    report = result.invariant_report or {}
    return Record(label=label, metrics=dict(result.metrics),
                  counters=dict(result.counters),
                  invariant_checks=int(report.get("checks", 0)),
                  violations=int(report.get("violation_count", 0)))


@dataclass
class PassContext:
    """What the harness hands a workload for one pass."""

    #: A wrapper around ``execute_point`` (the self-tests inject sleeps and
    #: metric drift here), or None for the function itself.
    execute: object
    #: ``spans.span(name, parent)`` context manager and the pass's span id.
    spans: object
    parent: int
    #: An empty directory of this pass's own, inside ``perf/results``.
    scratch: str


# ---------------------------------------------------------------------------
# point-list workloads
# ---------------------------------------------------------------------------

def rank_collectives(point) -> int:
    """Work of one point: ranks x collectives each rank takes part in."""
    if point.kind == "tenancy":
        return sum(int(j["nranks"])
                   * (int(j.get("iterations", 0)) + int(j.get("warmup", 0)))
                   for j in point.options["jobs"])
    warmup = 0 if point.kind == "fault_reduce" else point.warmup
    return point.config.size * (point.iterations + warmup)


class Workload:
    """What the harness needs of a workload, and the defaults."""

    work_unit = "rank-collectives"

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def after(self, items, last_extra) -> dict:
        """Exact counts only a step after the timed passes can give."""
        return {}


class PointWorkload(Workload):
    """A list of sweep points, each run through ``execute_point``."""

    def __init__(self, name: str, why: str, build):
        super().__init__(name, why)
        self._build = build

    def items(self, seed: int, quick: bool) -> list:
        return self._build(seed, quick)

    def setup(self, items) -> None:
        build_cluster = resolve("repro.runtime:build_cluster")
        resolve("repro.schedule.table:load_default_table")()
        for spec in dict.fromkeys(point.config for point in items):
            build_cluster(spec.build())

    def labels(self, items) -> list:
        return [f"{i:03d} {p.label()}" for i, p in enumerate(items)]

    def work(self, items, records) -> int:
        return sum(rank_collectives(p) for p in items)

    def run_pass(self, items, ctx: PassContext):
        execute = ctx.execute or resolve(
            "repro.orchestrate.points:execute_point")
        records = []
        for label, point in zip(self.labels(items), items):
            with ctx.spans.span(label, ctx.parent):
                try:
                    records.append(record_of(label, execute(point)))
                except Exception as exc:  # a failed point is a result here
                    records.append(Record(
                        label=label, error=f"{type(exc).__name__}: {exc}"))
        return records, {}


def _api():
    points = resolve("repro.orchestrate.points")
    config = resolve("repro.config")
    return points.SweepPoint, points.ConfigSpec, config


def _small_reduce_32(seed: int, quick: bool) -> list:
    SweepPoint, ConfigSpec, _ = _api()
    s = SIZES["small_reduce_32"]
    spec = ConfigSpec("paper", s["ranks"], seed)
    return [
        SweepPoint("small-cpu_util", "cpu_util", spec, build, 4,
                   max_skew_us=1000.0,
                   iterations=_scaled(s["cpu_util_iterations"], quick))
        for build in ("nab", "ab")
    ] + [
        SweepPoint("small-latency", "latency", spec, build, 4,
                   iterations=_scaled(s["latency_iterations"], quick))
        for build in ("nab", "ab")
    ]


def _scale_1024(seed: int, quick: bool) -> list:
    SweepPoint, ConfigSpec, config = _api()
    s = SIZES["scale_1024"]
    nets = (config.NetParams(topology="fattree", fattree_hosts_per_switch=32),
            config.NetParams(topology="torus"))
    return [
        SweepPoint(f"scale-{net.topology}", "cpu_util",
                   ConfigSpec("extrapolated", _scaled(s["ranks"], quick),
                              seed, net=net),
                   "ab", 4, max_skew_us=1000.0, iterations=s["iterations"],
                   warmup=s["warmup"])
        for net in nets
    ]


def _large_msg_pipeline(seed: int, quick: bool) -> list:
    SweepPoint, ConfigSpec, config = _api()
    s = SIZES["large_msg_pipeline"]
    medium = config.PipelineParams(segment_size_bytes=2048,
                                   max_inflight_segments=3)
    huge = config.PipelineParams(segment_size_bytes=16384,
                                 max_inflight_segments=3)
    points = [
        SweepPoint(f"large-4096-{shape}", "latency",
                   ConfigSpec("paper", s["ranks"], seed,
                              mpi=config.MpiParams(tree_shape=shape),
                              pipeline=medium),
                   build, 4096,
                   iterations=_scaled(s["medium_iterations"], quick))
        for shape in ("binomial", "chain")
        for build in ("nab", "ab")
    ]
    points += [
        SweepPoint("large-131072", "latency",
                   ConfigSpec("paper", s["huge_ranks"], seed, pipeline=huge),
                   build, 4096 if quick else 131072,
                   iterations=_scaled(s["huge_iterations"], quick))
        for build in ("nab", "ab")
    ]
    return points


def _schedule_pap(seed: int, quick: bool) -> list:
    SweepPoint, ConfigSpec, config = _api()
    s = SIZES["schedule_pap"]
    segments = config.PipelineParams(segment_size_bytes=2048,
                                     max_inflight_segments=3)
    lowerings = {"nab": "reduce.nab", "ab": "reduce.ab"}
    points = [
        SweepPoint(f"schedule-{shape}", "schedule",
                   ConfigSpec("paper", s["ranks"], seed,
                              mpi=config.MpiParams(tree_shape=shape),
                              pipeline=segments),
                   build, 1024,
                   iterations=_scaled(s["schedule_iterations"], quick),
                   options={"lowering": lowerings[build],
                            "passes": ["pipeline_segments"]})
        for shape in ("binomial", "chain")
        for build in ("nab", "ab")
    ]
    bursty = config.WorkloadParams(pattern="bursty", scale_us=1200.0,
                                   jitter_us=50.0, straggler_frac=0.25)
    points += [
        SweepPoint(f"pap-{algo}", "pap",
                   ConfigSpec("quiet", s["ranks"], seed, workload=bursty),
                   "ab" if algo == "ab" else "nab", 256,
                   iterations=_scaled(s["pap_iterations"], quick), warmup=1,
                   options={"algo": algo})
        for algo in ("sra", "pra", "ab")
    ]
    return points


def _contended_lossy(seed: int, quick: bool) -> list:
    SweepPoint, ConfigSpec, config = _api()
    tenancy = resolve("repro.tenancy")
    s = SIZES["contended_lossy"]
    cluster = tenancy.ClusterSpec(
        hosts=s["jobs"] * s["job_ranks"], factory="quiet", seed=seed,
        topology="fattree", fattree_hosts_per_switch=4,
        fattree_oversubscription=4.0)
    iterations = _scaled(s["tenancy_iterations"], quick)
    collectives = ("reduce", "allreduce")
    points = []
    for build in ("nab", "ab"):
        jobs = [
            tenancy.JobSpec(name=f"t{i}", nranks=s["job_ranks"],
                            collective=collectives[i % 2], elements=2048,
                            build=build, iterations=iterations, warmup=1,
                            max_skew_us=100.0, arrival_us=25.0 * i,
                            placement="spread")
            for i in range(s["jobs"])
        ]
        points.append(SweepPoint(
            "lossy-tenancy", "tenancy", cluster.to_config_spec(), build,
            2048, max_skew_us=100.0, iterations=iterations, warmup=1,
            collect_invariants=True,
            options={"cluster": cluster.to_dict(),
                     "jobs": [j.to_dict() for j in jobs], "solo": False}))
    lossy = ConfigSpec(
        "paper", s["ranks"], seed,
        net=config.NetParams(topology="fattree", fattree_hosts_per_switch=4),
        faults=config.FaultParams(burst_prob=0.02, burst_len=3,
                                  descriptor_timeout_us=20000.0,
                                  timeout_retries=3))
    points += [
        SweepPoint("lossy-fault_reduce", "fault_reduce", lossy, build, 4,
                   iterations=_scaled(s["fault_iterations"], quick),
                   collect_invariants=True)
        for build in ("nab", "ab")
    ]
    return points


# ---------------------------------------------------------------------------
# smoke_sweep: the CI shape, through run_points and a fresh cache
# ---------------------------------------------------------------------------

def smoke_grid_template() -> list:
    """The seven smoke grids at seed 0, from the repo's builders (only
    ``--pin`` calls this; runs read the committed file)."""
    points = resolve("repro.orchestrate.points")
    out = []
    for builder in SMOKE_BUILDERS:
        out += [p.to_dict() for p in getattr(points, builder)(seed=0)]
    return out


def _reseed(point, seed: int):
    """A pinned smoke point at ``seed`` (the tenancy kind carries the seed
    in its cluster spec as well)."""
    options = point.options
    if "cluster" in options:
        options = dict(options, cluster=dict(options["cluster"], seed=seed))
    return replace(point, config=replace(point.config, seed=seed),
                   options=options)


class SweepWorkload(PointWorkload):
    """The smoke grids at consecutive seeds through ``run_points(jobs=1)``
    with a fresh ``ResultCache``, then BENCH json write, load and
    self-compare — the tier-1 / CI shape."""

    work_unit = "points"

    def __init__(self, name: str, why: str):
        super().__init__(name, why, None)

    def items(self, seed: int, quick: bool) -> list:
        SweepPoint = resolve("repro.orchestrate.points:SweepPoint")
        s = SIZES["smoke_sweep"]
        with open(SMOKE_GRID_FILE) as fh:
            template = [SweepPoint.from_dict(d) for d in json.load(fh)]
        seeds, every = (1, 6) if quick else (s["seeds"], 1)
        return [_reseed(point, seed + k)
                for k in range(seeds) for point in template[::every]]

    def work(self, items, records) -> int:
        return len(items)

    def run_pass(self, items, ctx: PassContext):
        run_points = resolve("repro.orchestrate.runner:run_points")
        ResultCache = resolve("repro.tenancy.cache:ResultCache")
        benchjson = resolve("repro.orchestrate.benchjson")
        compare_payloads = resolve("repro.orchestrate.compare:compare_payloads")
        labels = self.labels(items)
        cache = ResultCache(os.path.join(ctx.scratch, "cache"))
        # run_points reports after each point, which is the only boundary
        # visible from outside: a point's span runs from the previous report.
        t0 = time.perf_counter()
        ends = [t0]

        def progress(_line):
            ends.append(time.perf_counter())
            ctx.spans.add(labels[len(ends) - 2], ctx.parent, ends[-2],
                          ends[-1])

        try:
            results = run_points(items, jobs=1, retries=0, progress=progress,
                                 cache=cache)
        except Exception as exc:  # PointFailed names the point and its replay
            return [Record(label=labels[len(ends) - 1],
                           error=f"{type(exc).__name__}: {exc}")], {}
        sweep_wall = time.perf_counter() - t0
        with ctx.spans.span("bench_json", ctx.parent):
            path = benchjson.write_bench_json(
                "perf_smoke", results, directory=ctx.scratch, sha="perf")
            payload = benchjson.load_bench_json(path)
            verdict = compare_payloads(payload, payload)
        records = [record_of(label, res)
                   for label, res in zip(labels, results)]
        if not verdict["ok"] or verdict["shared_points"] != len(items):
            records.append(Record(
                label="bench_json self-compare",
                error=f"shared={verdict['shared_points']} of {len(items)}, "
                      f"drifts={len(verdict['metric_drifts'])}"))
        inside = sum(res.wall_time_s for res in results)
        return records, {"sweep_wall_s": sweep_wall, "points_wall_s": inside,
                         "cache": cache}

    def after(self, items, last_extra) -> dict:
        """One warm pass against the last timed pass's populated cache:
        feeds the ``tenancy.cache_*`` rows only."""
        cache = last_extra.get("cache")
        if cache is None:
            return {}
        resolve("repro.orchestrate.runner:run_points")(
            items, jobs=1, cache=cache)
        return {"cache_hits": cache.hits, "cache_misses": cache.misses}


# ---------------------------------------------------------------------------
# schedule_compile: no simulation at all
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompileCase:
    size: int
    shape: str
    radix: int
    lowering: str
    #: 0 = a registered lowering; otherwise segments for ``pipeline_segments``
    pass_nseg: int = 0

    def label(self) -> str:
        tail = f" +pipeline_segments({self.pass_nseg})" if self.pass_nseg else ""
        return f"{self.lowering} {self.shape}{self.radix} n={self.size}{tail}"


class CompileWorkload(Workload):
    """Every registered lowering → validate → JSON round trip, and the
    ``pipeline_segments`` pass: the home of ``schedule`` and the bypass
    workload for the whole DES core."""

    work_unit = "steps"
    SHAPES = (("binomial", 2), ("knomial", 4), ("chain", 2), ("bine", 2))
    LOWER_NSEG = 8
    PASS_NSEG = 16

    def items(self, seed: int, quick: bool) -> list:
        del seed  # schedules have no random input
        s = SIZES["schedule_compile"]
        sizes, wide, pass_sizes = (((8,), 16, (8,)) if quick else
                                   (s["sizes"], s["wide"], s["pass_sizes"]))
        lowerings = sorted(resolve("repro.schedule.lower:LOWERINGS"))
        cases = [CompileCase(size, shape, radix, name)
                 for size in sizes for shape, radix in self.SHAPES
                 for name in lowerings]
        cases += [CompileCase(wide, "binomial", 2, name) for name in lowerings]
        cases += [CompileCase(size, "binomial", 2, "reduce.ab", self.PASS_NSEG)
                  for size in pass_sizes]
        return cases

    def setup(self, items) -> None:
        make_tree_shape = resolve("repro.topo:make_tree_shape")
        resolve("repro.schedule.table:load_default_table")()
        for shape, radix in self.SHAPES:
            make_tree_shape(shape, radix=radix)

    def labels(self, items) -> list:
        return [case.label() for case in items]

    def work(self, items, records) -> int:
        return sum(int(r.metrics.get("steps", 0)) for r in records)

    def _compile(self, case: CompileCase, api) -> Record:
        lower, apply_passes, Schedule, make_tree_shape = api
        shape = make_tree_shape(case.shape, radix=case.radix)
        if case.pass_nseg:
            schedule = apply_passes(
                lower(case.lowering, shape, case.size),
                [("pipeline_segments", {"nseg": case.pass_nseg})])
        elif ".pap_" in case.lowering:
            # the PAP lowerings are whole-message and take an arrival order
            schedule = lower(case.lowering, shape, case.size,
                             order=tuple(reversed(range(case.size))))
        else:
            schedule = lower(case.lowering, shape, case.size,
                             nseg=self.LOWER_NSEG)
        schedule.validate()
        text = schedule.to_json()
        if Schedule.from_json(text) != schedule:
            return Record(label=case.label(),
                          error="RoundTrip: from_json(to_json(s)) != s")
        return Record(label=case.label(), metrics={
            "steps": schedule.step_count,
            "json_sha256": hashlib.sha256(text.encode()).hexdigest()})

    def run_pass(self, items, ctx: PassContext):
        api = (resolve("repro.schedule.lower:lower"),
               resolve("repro.schedule.passes:apply_passes"),
               resolve("repro.schedule.ir:Schedule"),
               resolve("repro.topo:make_tree_shape"))
        records = []
        for case in items:
            with ctx.spans.span(case.label(), ctx.parent):
                try:
                    records.append(self._compile(case, api))
                except Exception as exc:  # a failed schedule is a result here
                    records.append(Record(
                        label=case.label(),
                        error=f"{type(exc).__name__}: {exc}"))
        return records, {}


WORKLOADS = {w.name: w for w in (
    PointWorkload(
        "small_reduce_32",
        "paper regime: barrier + 4-double reduce under skew on 32 ranks; "
        "event queue, process driver, cpu ledger and mpich.progress carry it",
        _small_reduce_32),
    PointWorkload(
        "scale_1024",
        "width: 1024 ranks on fat-tree and torus; same-instant events, "
        "multi-hop routing, cluster build and the largest resident set",
        _scale_1024),
    PointWorkload(
        "large_msg_pipeline",
        "bytes instead of skew: 32 KiB and 1 MiB segmented reduces; "
        "per-packet NIC callbacks, fabric, pipeline and fold kernels",
        _large_msg_pipeline),
    PointWorkload(
        "schedule_pap",
        "collectives driven by execute_schedule with per-arrival-order "
        "lowering; interpreter overhead shows here, not in large_msg_pipeline",
        _schedule_pap),
    PointWorkload(
        "contended_lossy",
        "8 tenants on a 4:1 fat-tree plus bursty loss with the monitor armed; "
        "port arbitration, go-back-N retransmit timers, per-event hook",
        _contended_lossy),
    SweepWorkload(
        "smoke_sweep",
        "the CI shape: many 20 ms armed points through run_points and a "
        "fresh cache, so per-point fixed cost is a visible share"),
    CompileWorkload(
        "schedule_compile",
        "no simulation: lower, validate, JSON round trip and rewrite of "
        "every lowering; bypasses the whole DES core, home of schedule"),
)}
