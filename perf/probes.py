"""Isolated probes: one layer at a time, untraced, public API only.

Each probe times a fixed amount of work against one layer's public functions
and reports the cost per operation; ``run_all`` takes the median of
``REPEATS`` runs.  They do not depend on the workload, so every traced run
takes them and ``schema.PROBES`` records which workload's ``wall_s`` each
should move.

A probe resolves the names it needs when it runs.  When a later change has
renamed or removed one, the row reads zero and the name is listed under
``trace.unresolved`` — the benchmark degrades, it does not break.
"""

from __future__ import annotations

import os
import statistics
import time

from perf import schema
from perf.workloads import Unresolved, resolve

REPEATS = 3


def _per_op(seconds: float, ops: int, scale: float) -> float:
    return seconds / ops * scale


def push_pop_ns(seed, scratch):
    """50k events: 500 instants x 100, three priority classes, 5 % cancelled."""
    events = resolve("repro.sim.events")
    queue = events.EventQueue()
    priorities = (events.PRIORITY_DELIVERY, events.PRIORITY_WAKE,
                  events.PRIORITY_TIMER)
    instants, width = 500, 100

    def fire():
        pass

    t0 = time.perf_counter()
    for i in range(instants * width):
        ev = queue.push(float(i % instants), fire, (), priorities[i % 3])
        if i % 20 == 0:
            ev.cancel()
            queue.note_cancelled()
    while queue.pop() is not None:
        pass
    return _per_op(time.perf_counter() - t0, instants * width, 1e9)


def _stepping(with_cpu: bool) -> float:
    sim_pkg = resolve("repro.sim")
    sim = sim_pkg.Simulator()
    procs, steps = 256, 60

    def plain():
        for _ in range(steps):
            yield sim_pkg.Busy(1.0)

    def polling():
        for _ in range(steps // 2):
            yield sim_pkg.Busy(1.0)
            trigger = sim_pkg.Trigger()
            sim.schedule(0.5, trigger.fire)
            yield sim_pkg.WaitFor(trigger, poll_category="poll")

    for i in range(procs):
        if with_cpu:
            sim.spawn(polling(), f"p{i}", sim_pkg.HostCpu(sim))
        else:
            sim.spawn(plain(), f"p{i}")
    t0 = time.perf_counter()
    sim.run()
    return _per_op(time.perf_counter() - t0, procs * steps, 1e9)


def step_ns(seed, scratch):
    """256 generator processes x 60 ``Busy`` on a bare ``Simulator``."""
    return _stepping(with_cpu=False)


def busy_poll_ns(seed, scratch):
    """The same with a ``HostCpu`` each and ``WaitFor`` polls."""
    return _stepping(with_cpu=True)


def match_ns(seed, scratch):
    """Match against 64 outstanding posted receives, then re-post."""
    matching = resolve("repro.mpich.matching")
    message = resolve("repro.mpich.message")
    Request = resolve("repro.mpich.requests:Request")
    engine = matching.MatchingEngine()
    senders, rounds = 64, 300

    def post(src):
        engine.add_posted(matching.PostedRecv(
            src, 7, 1, None, Request("recv"), 0.0))

    envelopes = [message.Envelope(src, 0, 7, 1, message.TransferKind.EAGER,
                                  None, 32) for src in range(senders)]
    for src in range(senders):
        post(src)
    t0 = time.perf_counter()
    for r in range(rounds):
        for k in range(senders):
            src = (k * 37 + r) % senders
            if engine.find_posted(envelopes[src]) is None:
                raise RuntimeError("posted receive not found")
            post(src)
    return _per_op(time.perf_counter() - t0, rounds * senders, 1e9)


def put_take_ns(seed, scratch):
    """AB unexpected queue: put from 64 senders, take each back."""
    import numpy as np
    Queue = resolve("repro.core.unexpected:AbUnexpectedQueue")
    AbHeader = resolve("repro.mpich.message:AbHeader")
    queue = Queue()
    senders, rounds = 64, 200
    data = np.zeros(4)
    headers = [AbHeader(root=0, instance=r) for r in range(rounds)]
    t0 = time.perf_counter()
    for r in range(rounds):
        for src in range(senders):
            queue.put(src, headers[r], data, 0.0)
        for src in range(senders):
            if queue.take(src) is None:
                raise RuntimeError("entry not found")
    return _per_op(time.perf_counter() - t0, rounds * senders, 1e9)


def _topologies():
    NetParams = resolve("repro.config:NetParams")
    make_topology = resolve("repro.topo:make_topology")
    nodes = 1024
    return [make_topology(params, nodes) for params in (
        NetParams(topology="torus"),
        NetParams(topology="fattree", fattree_hosts_per_switch=32))], nodes


def _pairs(seed: int, nodes: int, count: int) -> list:
    import numpy as np
    rng = np.random.default_rng([seed, nodes])
    flat = rng.choice(nodes * nodes, size=count, replace=False)
    return [(int(f) // nodes, int(f) % nodes) for f in flat
            if f // nodes != f % nodes]


def _route(seed: int, warm: bool) -> float:
    topologies, nodes = _topologies()
    pairs = _pairs(seed, nodes, 5000)
    if warm:
        for topo in topologies:
            for src, dst in pairs:
                topo.route(src, dst)
    t0 = time.perf_counter()
    for topo in topologies:
        for src, dst in pairs:
            topo.route(src, dst)
    return _per_op(time.perf_counter() - t0, 2 * len(pairs), 1e9)


def route_cold_ns(seed, scratch):
    """First route of 5k sampled pairs, torus + fat-tree at 1024."""
    return _route(seed, warm=False)


def route_warm_ns(seed, scratch):
    """The same pairs again, from the route cache."""
    return _route(seed, warm=True)


def transit_ns(seed, scratch):
    """``Topology.transit`` of a 72-byte packet over warm routes."""
    topologies, nodes = _topologies()
    pairs = _pairs(seed, nodes, 5000)
    for topo in topologies:
        for src, dst in pairs:
            topo.route(src, dst)
    t0 = time.perf_counter()
    for topo in topologies:
        at = 0.0
        for src, dst in pairs:
            at = topo.transit(at, src, dst, 72) - 1.0
    return _per_op(time.perf_counter() - t0, 2 * len(pairs), 1e9)


def build_ms(seed, scratch):
    """Config + cluster build, extrapolated-1024 on the fat-tree."""
    ConfigSpec = resolve("repro.orchestrate.points:ConfigSpec")
    NetParams = resolve("repro.config:NetParams")
    build_cluster = resolve("repro.runtime:build_cluster")
    spec = ConfigSpec("extrapolated", 1024, seed, net=NetParams(
        topology="fattree", fattree_hosts_per_switch=32))
    t0 = time.perf_counter()
    build_cluster(spec.build())
    return (time.perf_counter() - t0) * 1e3


def _fold(elements: int, rounds: int) -> float:
    import numpy as np
    SUM = resolve("repro.mpich.operations:SUM")
    acc = np.zeros(elements)
    operand = np.ones(elements)
    t0 = time.perf_counter()
    for _ in range(rounds):
        SUM.apply(acc, operand)
    return (time.perf_counter() - t0) / rounds * 1e9


def fold_small_ns(seed, scratch):
    """``SUM.apply`` on 4 doubles."""
    return _fold(4, 40_000)


def fold_large_ns_per_kib(seed, scratch):
    """``SUM.apply`` on 32 KiB, per KiB."""
    return _fold(4096, 8_000) / 32.0


def _schedules():
    lower = resolve("repro.schedule.lower:lower")
    shape = resolve("repro.topo:make_tree_shape")("binomial", radix=2)
    return [lambda: lower("allreduce.pap_sorted", shape, 32,
                          order=tuple(reversed(range(32)))),
            lambda: lower("reduce.ab", shape, 32, nseg=16)]


def lower_validate_ms(seed, scratch):
    """Lower + validate ``allreduce.pap_sorted`` and ``reduce.ab nseg=16``."""
    makers, rounds = _schedules(), 5
    t0 = time.perf_counter()
    for _ in range(rounds):
        for make in makers:
            make().validate()
    return (time.perf_counter() - t0) / rounds * 1e3


def json_roundtrip_ms(seed, scratch):
    """``to_json`` + ``from_json`` of the same two schedules."""
    Schedule = resolve("repro.schedule.ir:Schedule")
    schedules, rounds = [make() for make in _schedules()], 5
    t0 = time.perf_counter()
    for _ in range(rounds):
        for schedule in schedules:
            if Schedule.from_json(schedule.to_json()) != schedule:
                raise RuntimeError("round trip not equal")
    return (time.perf_counter() - t0) / rounds * 1e3


def generate_trace_ms(seed, scratch):
    """A bursty arrival trace, 32 ranks x 100 iterations."""
    WorkloadParams = resolve("repro.config:WorkloadParams")
    generate_trace = resolve("repro.workload.patterns:generate_trace")
    RngStreams = resolve("repro.sim.random:RngStreams")
    params = WorkloadParams(pattern="bursty", scale_us=1200.0, jitter_us=50.0,
                            straggler_frac=0.25)
    rounds = 10
    t0 = time.perf_counter()
    for _ in range(rounds):
        generate_trace(params, 32, 100, RngStreams(seed))
    return (time.perf_counter() - t0) / rounds * 1e3


def _tiny_point(seed: int):
    points = resolve("repro.orchestrate.points")
    return points.SweepPoint(
        "probe", "cpu_util", points.ConfigSpec("paper", 2, seed), "ab", 4,
        max_skew_us=1000.0, iterations=1, warmup=0, collect_invariants=True)


def point_overhead_ms(seed, scratch):
    """``execute_point`` on a 2-rank, 1-iteration armed point: config,
    cluster, monitor install and report around almost no simulation."""
    execute_point = resolve("repro.orchestrate.points:execute_point")
    point, rounds = _tiny_point(seed), 20
    t0 = time.perf_counter()
    for _ in range(rounds):
        execute_point(point)
    return (time.perf_counter() - t0) / rounds * 1e3


def _cache(seed: int, scratch: str, timed: str) -> float:
    from dataclasses import replace
    ResultCache = resolve("repro.tenancy.cache:ResultCache")
    execute_point = resolve("repro.orchestrate.points:execute_point")
    os.makedirs(scratch, exist_ok=True)
    cache = ResultCache(os.path.join(scratch, f"cache_{timed}"))
    result = execute_point(_tiny_point(seed))
    results = [replace(result, point=replace(result.point, iterations=1 + k))
               for k in range(200)]
    t0 = time.perf_counter()
    for res in results:
        cache.put(res)
    put = time.perf_counter() - t0
    t0 = time.perf_counter()
    for res in results:
        if cache.get(res.point) is None:
            raise RuntimeError("stored point not served")
    get = time.perf_counter() - t0
    return _per_op(put if timed == "put" else get, len(results), 1e6)


def cache_get_us(seed, scratch):
    """``ResultCache.get`` of a stored point (hash, open, parse)."""
    return _cache(seed, scratch, "get")


def cache_put_us(seed, scratch):
    """``ResultCache.put`` (hash, serialise, write, rename)."""
    return _cache(seed, scratch, "put")


#: Row name -> probe; the self-test keeps this and ``schema.PROBES`` equal.
FUNCTIONS = {
    "sim.events.probe_push_pop_ns": push_pop_ns,
    "sim.simulator.probe_step_ns": step_ns,
    "sim.cpu.probe_busy_poll_ns": busy_poll_ns,
    "mpich.matching.probe_match_ns": match_ns,
    "core.unexpected.probe_put_take_ns": put_take_ns,
    "topo.probe_route_cold_ns": route_cold_ns,
    "topo.probe_route_warm_ns": route_warm_ns,
    "topo.probe_transit_ns": transit_ns,
    "cluster.probe_build_ms": build_ms,
    "mpich.operations.probe_fold_small_ns": fold_small_ns,
    "mpich.operations.probe_fold_large_ns_per_kib": fold_large_ns_per_kib,
    "schedule.probe_lower_validate_ms": lower_validate_ms,
    "schedule.probe_json_roundtrip_ms": json_roundtrip_ms,
    "workload.probe_generate_trace_ms": generate_trace_ms,
    "orchestrate.probe_point_overhead_ms": point_overhead_ms,
    "tenancy.cache.probe_get_us": cache_get_us,
    "tenancy.cache.probe_put_us": cache_put_us,
}


def run_all(seed: int, scratch: str):
    """``({row: median}, [unresolved])``; an unresolved probe reads zero."""
    values, unresolved = {}, []
    for name, _unit, _home in schema.PROBES:
        probe = FUNCTIONS[name]
        try:
            values[name] = statistics.median(
                probe(seed, scratch) for _ in range(REPEATS))
        except (Unresolved, AttributeError, TypeError) as exc:
            # a public name or signature the probe was written against is
            # gone; anything else is a defect and propagates
            values[name] = 0.0
            unresolved.append(f"{name}: {exc}")
    return values, unresolved
