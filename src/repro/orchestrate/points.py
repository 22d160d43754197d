"""Sweep points: the unit of work the orchestrator distributes.

A :class:`SweepPoint` names one independent simulation run — one
``Simulator`` instance, single-threaded and bit-deterministic for a fixed
``(config, build, seed)`` — plus everything a worker process needs to
rebuild it from scratch: a :class:`ConfigSpec` (a *serializable recipe*
for a :class:`~repro.config.ClusterConfig`, not the config itself, so a
failing point can be replayed from its JSON form) and the benchmark kind
and arguments.

The point's identity for merging and for BENCH_*.json is its
:meth:`SweepPoint.key`: ``(experiment, kind, size, skew, build, elements,
seed, iterations)``.  Two runs that share a key must produce bit-identical
metrics; the orchestrator's tests enforce that across process boundaries.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field, is_dataclass, replace
from functools import partial
from typing import Callable, Mapping, Optional, Sequence

from ..config import (AbParams, ClusterConfig, FaultParams, MpiParams,
                      NetParams, NicParams, NoiseParams, PipelineParams,
                      Record, RecordError, WorkloadParams, check_name, encode,
                      extrapolated_cluster, homogeneous_cluster,
                      paper_cluster, quiet_cluster)
from ..errors import ConfigError
from ..mpich.rank import BUILD_TAGS, build_from_tag
from ..topo import TOPOLOGIES, TREE_SHAPES

#: Named cluster factories a ConfigSpec may reference.  Registry-based so
#: a spec survives a JSON round trip (the repro command for a crashed
#: worker) without pickling closures across processes.
CONFIG_FACTORIES: dict[str, Callable[..., ClusterConfig]] = {
    "paper": paper_cluster,
    "homogeneous": homogeneous_cluster,
    "extrapolated": extrapolated_cluster,
    "quiet": quiet_cluster,
}


@dataclass(frozen=True)
class ConfigSpec(Record):
    """Serializable recipe for a ClusterConfig: factory name + size + seed
    plus optional parameter-block overrides, applied with
    dataclasses.replace semantics after the factory runs."""

    WHERE = "config"
    factory: str
    size: int
    seed: int
    ab: Optional[AbParams] = None
    nic: Optional[NicParams] = None
    net: Optional[NetParams] = None
    mpi: Optional[MpiParams] = None
    noise: Optional[NoiseParams] = None
    faults: Optional[FaultParams] = None
    pipeline: Optional[PipelineParams] = None
    workload: Optional[WorkloadParams] = None

    def build(self) -> ClusterConfig:
        """The config this recipe describes; a name no registry holds is
        one :class:`~repro.config.RecordError` here, not a lookup failure
        deep inside cluster construction."""
        check_name("config factory", self.factory, CONFIG_FACTORIES)
        config = replace(
            CONFIG_FACTORIES[self.factory](self.size, seed=self.seed),
            **{name: block for name, block in vars(self).items()
               if is_dataclass(block)})
        check_name("topology", config.net.topology, TOPOLOGIES)
        check_name("tree shape", config.mpi.tree_shape,
                   (*TREE_SHAPES, "auto"))
        return config

    def variant(self) -> str:
        """Short stable tag for the (factory, overrides) combination, so
        two points that differ only in parameter-block overrides (e.g. the
        eager-limit ablation's limited vs. baseline configs) get distinct
        BENCH keys."""
        overrides = encode(self, factory=None, size=None, seed=None)
        if not overrides:
            return self.factory
        digest = hashlib.sha1(
            json.dumps(overrides, sort_keys=True).encode()).hexdigest()[:8]
        return f"{self.factory}+{digest}"


@dataclass
class SweepPoint(Record):
    """One independent simulation run inside a sweep."""

    WHERE = "point"
    experiment: str              # e.g. "fig7"
    kind: str                    # executor name in KINDS
    config: ConfigSpec
    build: str                   # "nab" | "ab"
    elements: int
    max_skew_us: float = 0.0
    iterations: int = 100
    warmup: int = 3
    #: Collect an InvariantMonitor report alongside the metrics (used by
    #: the CI smoke sweep so protocol violations surface as artifacts).
    collect_invariants: bool = False
    #: Schedule-perturbation mode (repro.analysis.races): when set, every
    #: event queue built for this point runs with the seeded
    #: tiebreak-shuffle, so same-time events fire in a deterministic
    #: pseudo-random permutation instead of FIFO order.  None = FIFO.
    tiebreak_seed: Optional[int] = None
    #: Free-form executor options (e.g. the chaos kind's failure script).
    options: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Refuse what would otherwise simulate something else than was
        asked for, or fail inside a worker: counts out of range, a cluster
        size the factory cannot build, an option the kind never reads."""
        check_name("point kind", self.kind, KINDS)
        if self.iterations < 1 or self.warmup < 0 or self.elements < 1:
            raise RecordError(
                "point needs iterations >= 1, warmup >= 0 and elements >= 1,"
                f" got iterations={self.iterations} warmup={self.warmup} "
                f"elements={self.elements}")
        try:
            self.config.build()
        except ConfigError as exc:
            raise RecordError(f"point config: {exc}") from None
        known = KINDS[self.kind][1]
        unknown = sorted(set(self.options) - set(known))
        if unknown:
            raise RecordError(
                f"options has unknown key(s) {', '.join(map(repr, unknown))}"
                f" for kind {self.kind!r}; known: {sorted(known)}")
        gap = self.options.get("gap_us", 0.0)
        if type(gap) not in (int, float):
            raise RecordError(f"options.gap_us must be a number, got {gap!r}")

    def key(self) -> dict:
        """The identity the merge and BENCH_*.json are keyed by.

        ``options`` are not part of it (the schema predates them and the
        committed baselines pin it), so a grid whose points differ only
        in an option carries that option in the experiment tag
        (``pap_smoke-bursty-sra``, ``tenancy_smoke-2j``);
        ``bench_payload`` refuses two points that share a key."""
        key = {
            "experiment": self.experiment,
            "kind": self.kind,
            "variant": self.config.variant(),
            "size": self.config.size,
            "skew_us": self.max_skew_us,
            "build": self.build,
            "elements": self.elements,
            "seed": self.config.seed,
            "iterations": self.iterations,
        }
        if self.tiebreak_seed is not None:
            # Only present in race-check sweeps, so ordinary BENCH keys
            # stay byte-identical to previous schema-1 files.
            key["tiebreak"] = self.tiebreak_seed
        return key

    def label(self) -> str:
        return (f"{self.experiment}/{self.kind} n={self.config.size} "
                f"elems={self.elements} skew={self.max_skew_us:g} "
                f"build={self.build} seed={self.config.seed}")

    def repro_command(self) -> str:
        """Shell command that replays exactly this point, serially, in a
        fresh process — pasted into worker-failure errors."""
        spec = json.dumps(self.to_dict(), sort_keys=True)
        return ("PYTHONPATH=src python -m repro.orchestrate run-point "
                f"'{spec}'")


@dataclass
class PointResult:
    """What a worker hands back for one completed point."""

    point: SweepPoint
    #: Scalar metrics only — this is what BENCH_*.json records and what
    #: the compare CLI diffs.  Bit-identical across --jobs settings.
    metrics: dict
    #: Host wall-clock seconds for this point (worker-side measurement).
    wall_time_s: float
    #: Simulator work counters (events/ops/processes) for the run.
    counters: dict
    #: InvariantMonitor report when point.collect_invariants was set.
    invariant_report: Optional[dict] = None


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------
#
# A kind's adapter maps point fields onto one benchmark call and returns
# what it measured: an object with ``metrics()`` (flat floats for BENCH
# json) and ``sim_counters`` — a ``repro.bench`` / ``repro.tenancy``
# result, which names its own metrics, or :class:`Scalars` for the
# metric-only kinds.  Only those two travel back to the parent process.

class Scalars:
    """What a metric-only kind measures: named floats and no simulator
    counters (the closed-form NIC-reduction model, the chaos drill)."""

    def __init__(self, **values: float):
        self.values = values
        self.sim_counters: dict = {}

    def metrics(self) -> dict:
        return {name: float(v) for name, v in self.values.items()}


def _run_cpu_util(point: SweepPoint, config: ClusterConfig):
    from ..bench.cpu_util import cpu_util_benchmark
    return cpu_util_benchmark(config, build_from_tag(point.build),
                              elements=point.elements,
                              max_skew_us=point.max_skew_us,
                              iterations=point.iterations,
                              warmup=point.warmup)


def _run_latency(point: SweepPoint, config: ClusterConfig):
    from ..bench.latency import latency_benchmark
    return latency_benchmark(config, build_from_tag(point.build),
                             elements=point.elements,
                             iterations=point.iterations,
                             warmup=point.warmup)


def _run_nicred_cpu(point: SweepPoint, config: ClusterConfig):
    from ..bench.nicred import nicred_cpu_util
    return Scalars(avg_util_us=nicred_cpu_util(
        config, elements=point.elements, max_skew_us=point.max_skew_us,
        iterations=point.iterations))


def _run_fault_reduce(point: SweepPoint, config: ClusterConfig):
    from ..bench.faulted import fault_reduce_benchmark
    return fault_reduce_benchmark(
        config, build_from_tag(point.build), elements=point.elements,
        iterations=point.iterations,
        gap_us=float(point.options.get("gap_us", 200.0)))


def _run_tenancy(point: SweepPoint, config: ClusterConfig):
    """Multi-tenant service point: N declarative jobs on one shared
    fabric (repro.tenancy).  ``point.options`` carries the ClusterSpec
    and JobSpec dicts; ``point.config`` mirrors the spec's lowered
    ConfigSpec so the BENCH key's variant digest reflects the topology
    knobs."""
    from ..tenancy import ClusterSpec, JobSpec, run_tenancy
    del config  # the spec rebuilds its own config (kept in options)
    spec = ClusterSpec.from_dict(point.options["cluster"])
    jobs = [JobSpec.from_dict(j) for j in point.options["jobs"]]
    return run_tenancy(spec, jobs,
                       solo_baseline=bool(point.options.get("solo", True)))


def _run_chaos(point: SweepPoint, config: ClusterConfig):
    """Deliberately unreliable executor for exercising the retry path
    (tests and fault drills only).  Fails until a counter file records
    ``succeed_after`` prior attempts, then returns a fixed metric."""
    import os
    counter_file = point.options["counter_file"]
    succeed_after = int(point.options.get("succeed_after", 1))
    attempts = 0
    if os.path.exists(counter_file):
        with open(counter_file) as fh:
            attempts = int(fh.read().strip() or 0)
    attempts += 1
    with open(counter_file, "w") as fh:
        fh.write(str(attempts))
    if attempts <= succeed_after:
        raise RuntimeError(f"chaos point failing on purpose "
                           f"(attempt {attempts}/{succeed_after})")
    return Scalars(attempts=attempts)


def _run_schedule(point: SweepPoint, config: ClusterConfig):
    """Schedule-IR point (repro.schedule): lower the collective named in
    ``options`` to a Schedule, apply the listed rewrite passes, and execute
    it through the interpreter on every rank.  ``options["passes"]`` holds
    pass specs (a name, or ``[name, kwargs]`` after a JSON round trip)."""
    from ..bench.scheduled import scheduled_benchmark
    passes = tuple(tuple(p) if isinstance(p, list) else p
                   for p in point.options.get("passes", ()))
    return scheduled_benchmark(
        config, build_from_tag(point.build),
        lowering=point.options.get("lowering", "reduce.nab"),
        passes=passes, elements=point.elements,
        iterations=point.iterations, warmup=point.warmup)


def _run_pap(point: SweepPoint, config: ClusterConfig):
    """PAP workload point (repro.workload): allreduce makespan under the
    config's arrival pattern with the algorithm named in ``options``
    (nab/ab/pipelined legacy paths or the schedule-driven sra/pra)."""
    from ..bench.pap import pap_benchmark
    return pap_benchmark(config, algo=point.options.get("algo", "nab"),
                         elements=point.elements,
                         iterations=point.iterations, warmup=point.warmup)


# ---------------------------------------------------------------------------
# point makers: what a CI grid and the figure that scales it up share
# ---------------------------------------------------------------------------

#: The armed pipeline of every segmented smoke and figure point: 2 KiB
#: segments, three in flight.
SEGMENTED = PipelineParams(segment_size_bytes=2048, max_inflight_segments=3)

#: Four hosts per leaf switch, so an 8-node run crosses the spine instead
#: of degenerating to one crossbar.
FATTREE_4 = NetParams(topology="fattree", fattree_hosts_per_switch=4)

#: label -> ``(FaultParams, builds)``, one per non-loss injector.  Crash
#: and suppression are AB-only: ``repro.bench.faulted`` refuses a crash on
#: the blocking non-bypass reduce, which has no recovery layer, and that
#: build never arms the NIC signals suppression swallows.
FAULT_SCENARIOS = {
    "degrade": (
        FaultParams(degrade_start_us=200.0, degrade_end_us=1200.0,
                    degrade_latency_factor=4.0, degrade_bandwidth_factor=3.0),
        ("nab", "ab")),
    "suppress": (
        FaultParams(suppress_node=4, suppress_start_us=0.0,
                    suppress_end_us=1500.0),
        ("ab",)),
    "pause": (
        FaultParams(pause_rank=2, pause_at_us=300.0, pause_duration_us=800.0),
        ("nab", "ab")),
    "crash+heal": (
        FaultParams(crash_rank=6, crash_at_us=400.0, tree_heal=True,
                    descriptor_timeout_us=300.0, timeout_retries=2),
        ("ab",)),
}


def burst_loss(rate: float) -> FaultParams:
    """Any packet starts a 3-packet burst drop with probability ``rate``;
    the descriptor timeout sits far above go-back-N's recovery time."""
    return FaultParams(burst_prob=rate, burst_len=3,
                       descriptor_timeout_us=20000.0, timeout_retries=3)


#: Ranks per tenant job.
TENANT_RANKS = 4


def cpu_util_point(experiment: str, size: int, build: str, *, seed: int,
                   iterations: int, elements: int, skew: float = 0.0,
                   factory: str = "paper", warmup: int = 3,
                   collect_invariants: bool = False,
                   **blocks) -> SweepPoint:
    """The paper's CPU-utilization benchmark (Figs. 6-8) on a ``size``-rank
    ``factory`` cluster; ``blocks`` are :class:`ConfigSpec` overrides."""
    return SweepPoint(experiment=experiment, kind="cpu_util",
                      config=ConfigSpec(factory, size, seed, **blocks),
                      build=build, elements=elements, max_skew_us=skew,
                      iterations=iterations, warmup=warmup,
                      collect_invariants=collect_invariants)


def topo_point(experiment: str, topo: str, tree: tuple, build: str, *,
               size: int, seed: int, iterations: int, elements: int = 4,
               skew: float = 1000.0) -> SweepPoint:
    """CPU utilization on topology ``topo`` with the ``(shape, radix)``
    reduction tree ``tree``, under the invariant monitor (INV-FIFO
    included)."""
    shape, radix = tree
    return cpu_util_point(
        experiment, size, build, seed=seed, iterations=iterations,
        elements=elements, skew=skew, collect_invariants=True,
        net=NetParams(topology=topo),
        mpi=MpiParams(tree_shape=shape, tree_radix=radix))


#: The reduce lowering each build executes.
BUILD_LOWERINGS = {"nab": "reduce.nab", "ab": "reduce.ab"}
#: tag -> (pipeline override or None, passes): pass-off vs pass-on.
PASS_VARIANTS = {"whole": (None, ()),
                 "pass": (SEGMENTED, ("pipeline_segments",))}


def crossover_point(experiment: str, shape: str, build: str, variant: str,
                    elements: int, *, size: int, seed: int,
                    iterations: int) -> SweepPoint:
    """The build's reduce lowering on a ``shape`` tree, whole-message or
    rewritten by ``pipeline_segments`` (dropped for a single-chunk message,
    which declines segmentation bit-exactly); the variant rides in the
    experiment tag (see ``SweepPoint.key``)."""
    pipeline, passes = PASS_VARIANTS[variant]
    if pipeline and elements * 8 <= pipeline.segment_size_bytes:
        passes = ()
    return SweepPoint(
        experiment=f"{experiment}-{variant}", kind="schedule",
        config=ConfigSpec("paper", size, seed,
                          mpi=MpiParams(tree_shape=shape),
                          pipeline=pipeline),
        build=build, elements=elements, iterations=iterations,
        options={"lowering": BUILD_LOWERINGS[build],
                 "passes": list(passes)},
        collect_invariants=True)


def tenancy_point(tag: str, topo: str, njobs: int, build: str, *,
                  hosts: int, elements: int, iterations: int,
                  seed: int) -> SweepPoint:
    """``njobs`` co-tenant jobs of :data:`TENANT_RANKS` ranks on one shared
    quiet cluster: alternating reduce/allreduce, staggered arrivals, modest
    injected skew, the adversarial ``spread`` placement, solo baselines on.
    The co-tenant count rides in the experiment tag (``SweepPoint.key``)."""
    from ..tenancy import ClusterSpec, JobSpec
    # 4 hosts per edge switch, 4:1 oversubscribed uplinks — the contended
    # regime (full bisection would hide the co-tenants).
    knobs = (dict(fattree_hosts_per_switch=4, fattree_oversubscription=4.0)
             if topo == "fattree" else {})
    cluster = ClusterSpec(hosts=hosts, factory="quiet", seed=seed,
                          topology=topo, **knobs)
    collectives = ("reduce", "allreduce")
    jobs = [
        JobSpec(name=f"t{i}", nranks=TENANT_RANKS,
                collective=collectives[i % len(collectives)],
                elements=elements, build=build, iterations=iterations,
                warmup=1, max_skew_us=100.0, arrival_us=25.0 * i,
                placement="spread")
        for i in range(njobs)
    ]
    return SweepPoint(
        experiment=f"{tag}-{njobs}j", kind="tenancy",
        config=cluster.to_config_spec(),
        build=build, elements=elements, max_skew_us=100.0,
        iterations=iterations, warmup=1, collect_invariants=True,
        options={"cluster": cluster.to_dict(),
                 "jobs": [j.to_dict() for j in jobs],
                 "solo": True})


# ---------------------------------------------------------------------------
# the CI grids: axes over a point maker
# ---------------------------------------------------------------------------

def grid_cells(axes: Mapping[str, Sequence],
               make: Callable[..., Optional[SweepPoint]]) -> list[tuple]:
    """The one walk over a sweep grid: ``(cell, make(**cell))`` per cell of
    the product of ``axes``, first axis slowest, each point validated
    before anything runs; a ``None`` point skips its cell."""
    for name, values in axes.items():
        if len(set(values)) != len(values):
            raise ValueError(f"axis {name!r} repeats a value: "
                             f"{list(values)}")
    cells = []
    for cell in itertools.product(*axes.values()):
        point = make(**dict(zip(axes, cell)))
        if point is not None:
            point.validate()
            cells.append((cell, point))
    return cells


@dataclass(frozen=True)
class Grid:
    """One registered CI grid: ``make(**cell, seed=, iterations=)`` is the
    point of each cell of ``axes`` (see :func:`grid_cells`).  ``name`` is
    every consumer's handle (``smoke``, ``races --scenario``,
    ``refresh-baseline``, the CI matrix, the invariant report); ``bench``
    is the historical ``BENCH_<bench>.json`` name baselines carry."""

    name: str
    bench: str
    axes: dict
    make: Callable[..., Optional[SweepPoint]]
    iterations: int = 6

    def points(self, *, seed: int = 1, iterations: Optional[int] = None,
               **axes) -> list[SweepPoint]:
        """The grid's points; ``iterations=None`` keeps the grid's own,
        ``axes`` replace axes the grid has (``size=(4, 8)``)."""
        for name in set(axes) - set(self.axes):
            raise RecordError(f"grid {self.name!r} has no {name} axis")
        make = partial(self.make, seed=seed, iterations=(
            self.iterations if iterations is None else iterations))
        return [point for _cell, point
                in grid_cells({**self.axes, **axes}, make)]

    def baseline_path(self, directory: str = "benchmarks/baselines") -> str:
        """Where the committed perf-gate baseline lives; the grid is gated
        in CI iff this file exists."""
        return f"{directory}/BENCH_{self.bench}.baseline.json"


#: The faults grid, label -> (faults, net override, builds): no fault,
#: burst loss (crossbar, one fattree check), every :data:`FAULT_SCENARIOS`.
FAULTS_GRID = {
    "healthy": (None, None, BUILD_TAGS),
    "loss": (burst_loss(0.02), None, BUILD_TAGS),
    "loss-fattree": (burst_loss(0.02), FATTREE_4, ("ab",)),
    **{label: (faults, None, builds)
       for label, (faults, builds) in FAULT_SCENARIOS.items()},
}


def _faults_point(scenario: str, build: str, *, seed: int,
                  iterations: int) -> Optional[SweepPoint]:
    faults, net, builds = FAULTS_GRID[scenario]
    if build not in builds:
        return None
    return SweepPoint(
        experiment="faults_smoke", kind="fault_reduce",
        config=ConfigSpec("paper", 8, seed, net=net, faults=faults),
        build=build, elements=4, iterations=iterations,
        collect_invariants=True)


#: The pipeline grid's schedules; the whole-message baseline adds no
#: override, so its keys stay identical to a pipeline-free checkout.
PIPELINES = {"whole": None, "fixed": SEGMENTED,
             "greedy": replace(SEGMENTED, schedule="greedy")}


def _pipeline_point(variant: str, build: str, *, seed: int,
                    iterations: int) -> Optional[SweepPoint]:
    """Large-message latency per schedule, plus an AB crash+heal
    mid-pipeline paced inside the busiest parent's RX budget: eager
    segmented reduces have no end-to-end flow control, so overpacing turns
    into honest abandons, not a hang (DESIGN.md §11)."""
    if build == "nab" and variant in ("greedy", "crash+heal"):
        return None
    if variant in PIPELINES:
        return SweepPoint(
            "pipeline_smoke", "latency",
            ConfigSpec("paper", 16, seed, pipeline=PIPELINES[variant]),
            build, 1024, iterations=iterations, collect_invariants=True)
    crash = FaultParams(crash_rank=24, crash_at_us=900.0, tree_heal=True,
                        descriptor_timeout_us=300.0, timeout_retries=2)
    return SweepPoint(
        "pipeline_smoke", "fault_reduce",
        ConfigSpec("quiet", 32, seed, faults=crash, pipeline=SEGMENTED),
        build, 2048, iterations=iterations, options={"gap_us": 1200.0},
        collect_invariants=True)


#: The pap grid's arrival patterns.
PAP_PATTERNS = {
    "uniform": WorkloadParams(pattern="uniform_random", scale_us=400.0),
    "bursty": WorkloadParams(pattern="bursty", scale_us=1200.0,
                             jitter_us=50.0, straggler_frac=0.25),
}


def _pap_point(pattern: str, algo: str, *, seed: int,
               iterations: int) -> SweepPoint:
    """The algorithm rides in the experiment tag (``SweepPoint.key``)."""
    return SweepPoint(
        experiment=f"pap_smoke-{pattern}-{algo}", kind="pap",
        config=ConfigSpec("quiet", 8, seed, workload=PAP_PATTERNS[pattern]),
        build="ab" if algo == "ab" else "nab",
        elements=256, iterations=iterations, warmup=1,
        options={"algo": algo}, collect_invariants=True)


#: The one registration per grid: its axes over a point maker, the
#: figure's own where the grid is a slice of one.  Add the name to
#: ci.yml's ``grid:`` matrix too (a tier-1 test holds the two equal).  The
#: first entry is the ``smoke`` command's default.
GRIDS: dict[str, Grid] = {g.name: g for g in (
    # Fig. 7 in seconds: 4 doubles at 1000 us skew.
    Grid("fig7", "smoke", {"size": (2, 4, 8), "build": BUILD_TAGS},
         partial(cpu_util_point, "smoke", elements=4, skew=1000.0,
                 collect_invariants=True), iterations=10),
    # fig_topo at 1000 us skew: every topology, two tree shapes.
    Grid("topo", "topo_smoke",
         {"topo": ("crossbar", "fattree", "torus"),
          "tree": (("binomial", 2), ("bine", 2)), "build": BUILD_TAGS},
         partial(topo_point, "topo_smoke", size=8), iterations=8),
    Grid("faults", "faults_smoke",
         {"scenario": tuple(FAULTS_GRID), "build": BUILD_TAGS}, _faults_point),
    Grid("pipeline", "pipeline_smoke",
         {"variant": (*PIPELINES, "crash+heal"), "build": BUILD_TAGS},
         _pipeline_point),
    # fig_schedule's crossover at 1024 doubles, where pipelining visibly
    # wins (most on the chain shape).
    Grid("schedule", "schedule_smoke",
         {"shape": ("binomial", "chain"), "variant": tuple(PASS_VARIANTS),
          "build": BUILD_TAGS},
         partial(crossover_point, "schedule_smoke", elements=1024, size=8)),
    # fig_tenancy's 1 and 2 co-tenants: they contend on the fat-tree only.
    Grid("tenancy", "tenancy_smoke",
         {"topo": ("fattree", "torus"), "njobs": (1, 2), "build": BUILD_TAGS},
         partial(tenancy_point, "tenancy_smoke", hosts=16, elements=2048),
         iterations=5),
    Grid("pap", "pap_smoke",
         {"pattern": tuple(PAP_PATTERNS), "algo": ("nab", "ab", "sra", "pra")},
         _pap_point),
    # The scaled event core at sizes no figure reaches, unmonitored: CI's
    # timeout-minutes on this job is the wall-clock gate.
    Grid("scale", "scale",
         {"size": (1024, 2048, 4096),
          "net": (NetParams(topology="fattree", fattree_hosts_per_switch=32),
                  NetParams(topology="torus"))},
         partial(cpu_util_point, "scale_smoke", build="ab", elements=4,
                 skew=1000.0, factory="extrapolated", warmup=1),
         iterations=2),
)}

# The builder names perf/workloads.py's SMOKE_BUILDERS resolves under
# ``run.py --pin``.  ROADMAP 1 points that list at GRIDS and deletes these.
smoke_points = GRIDS["fig7"].points
topo_smoke_points = GRIDS["topo"].points
faults_smoke_points = GRIDS["faults"].points
pipeline_smoke_points = GRIDS["pipeline"].points
schedule_smoke_points = GRIDS["schedule"].points
tenancy_smoke_points = GRIDS["tenancy"].points
pap_smoke_points = GRIDS["pap"].points


#: kind -> (executor, the ``options`` keys it reads).
KINDS: dict[str, tuple[Callable, tuple]] = {
    "cpu_util": (_run_cpu_util, ()),
    "latency": (_run_latency, ()),
    "nicred_cpu_util": (_run_nicred_cpu, ()),
    "fault_reduce": (_run_fault_reduce, ("gap_us",)),
    "tenancy": (_run_tenancy, ("cluster", "jobs", "solo")),
    "chaos": (_run_chaos, ("counter_file", "succeed_after")),
    "schedule": (_run_schedule, ("lowering", "passes")),
    "pap": (_run_pap, ("algo",)),
}


def execute_point(point: SweepPoint) -> PointResult:
    """Run one point to completion in the current process.

    This is the function worker processes execute; it must stay importable
    at module top level (picklable by reference) and free of global state
    beyond the registries above.

    An enabled cyclic collector is paused for the point, then frees what it
    left (its cluster is the one cycle) with one young pass once the
    point's frame is gone (DESIGN §13).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _execute_point(point)
    finally:
        if enabled:
            gc.collect(0)
            gc.enable()


def _execute_point(point: SweepPoint) -> PointResult:
    check_name("point kind", point.kind, KINDS)
    runner = KINDS[point.kind][0]
    config = point.config.build()

    monitor = None
    if point.collect_invariants:
        from ..analysis import COLLECT, InvariantMonitor, \
            set_default_monitor_factory
        reports: list = []

        def _factory():
            m = InvariantMonitor(mode=COLLECT)
            reports.append(m)
            return m
        set_default_monitor_factory(_factory)
    from ..sim.events import get_default_tiebreak_seed, \
        set_default_tiebreak_seed
    prev_tiebreak = get_default_tiebreak_seed()
    if point.tiebreak_seed is not None:
        set_default_tiebreak_seed(point.tiebreak_seed)
    t0 = time.perf_counter()
    try:
        measured = runner(point, config)
    finally:
        # Restore unconditionally: pool workers are reused across points,
        # so a leaked tiebreak seed would silently perturb later points.
        set_default_tiebreak_seed(prev_tiebreak)
        if point.collect_invariants:
            set_default_monitor_factory(None)
            monitor = reports
    wall = time.perf_counter() - t0

    invariant_report = None
    if monitor:
        invariant_report = {
            "checks": sum(m.checks for m in monitor),
            "violation_count": sum(len(m.violations) for m in monitor),
            "violations": [v.to_dict() for m in monitor
                           for v in m.violations],
        }
    return PointResult(point=point, metrics=measured.metrics(),
                       wall_time_s=wall,
                       counters=dict(measured.sim_counters),
                       invariant_report=invariant_report)
