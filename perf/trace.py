"""The traced run: host time per layer, from outside the program.

One pass of a workload runs under the interpreter's profile hook
(``cProfile``); nothing under ``src/`` is edited.  Every function the hook
saw belongs to the layer its module maps to (``LAYER_PREFIXES``), a layer's
``self_s`` is the sum of its functions' own time (duration minus child
calls), and ``calls_in`` counts caller→callee edges that enter the layer
from a different one.  Frames of the benchmark itself (``perf/``) belong to
no layer: their time is the unattributed share, and a call they make into a
layer counts as a call in.

The profile hook costs time on every Python call and none inside native
code, so the traced proportions are a guide to where to look, and every
end-to-end number comes from untraced passes (``trace.overhead_x`` is the
ratio between the two).
"""

from __future__ import annotations

import cProfile
import importlib.util
import os
import time

#: The declared layers, in the order the tables print them.
LAYERS = (
    "sim.events", "sim.simulator", "sim.process", "sim.cpu",
    "gm.nic", "gm.reliability", "network", "topo",
    "mpich.progress", "mpich.matching", "mpich.collectives",
    "mpich.operations", "core.engine", "core.interpreter", "pipeline",
    "schedule", "workload", "faults", "tenancy", "analysis", "orchestrate",
    "cluster", "bench", "builtins",
)

#: Module prefix -> layer; the longest matching prefix wins.  A ``repro``
#: module no prefix names falls to its package (``repro.<pkg>``) when that is
#: a declared layer, and the harness self-test refuses a module that maps to
#: no declared layer at all.
LAYER_PREFIXES = {
    "repro.sim.events": "sim.events",
    "repro.sim.simulator": "sim.simulator",
    "repro.sim.process": "sim.process",
    "repro.sim.cpu": "sim.cpu",
    # access hooks, RNG streams and the tracer are the simulator's helpers
    "repro.sim": "sim.simulator",
    "repro.gm.reliability": "gm.reliability",
    "repro.gm": "gm.nic",
    "repro.network": "network",
    "repro.topo": "topo",
    "repro.mpich.progress": "mpich.progress",
    "repro.mpich.requests": "mpich.progress",
    "repro.mpich.matching": "mpich.matching",
    "repro.mpich.message": "mpich.matching",
    "repro.mpich.operations": "mpich.operations",
    "repro.mpich.datatypes": "mpich.operations",
    # collectives, rank, communicator
    "repro.mpich": "mpich.collectives",
    "repro.core.interpreter": "core.interpreter",
    # engine, descriptor, unexpected, split_phase, broadcast, plan, ...
    "repro.core": "core.engine",
    "repro.pipeline": "pipeline",
    "repro.schedule": "schedule",
    "repro.workload": "workload",
    "repro.faults": "faults",
    "repro.tenancy": "tenancy",
    "repro.analysis": "analysis",
    "repro.orchestrate": "orchestrate",
    "repro.cluster": "cluster",
    "repro.config": "cluster",
    "repro.units": "cluster",
    "repro.errors": "cluster",
    # the rank programs and what launches and reports them
    "repro.bench": "bench",
    "repro.runtime": "bench",
    "repro.apps": "bench",
    "repro.experiments": "bench",
    "repro.report": "bench",
    "repro.__init__": "bench",
    "repro.__main__": "bench",
}

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep


def layer_of_module(module: str):
    """Layer of a dotted module name: the longest declared prefix, else the
    module's package when that is a layer, else ``builtins`` for anything
    outside ``repro`` and None for a ``repro`` module nothing claims."""
    if module != "repro" and not module.startswith("repro."):
        return "builtins"
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:n]))
        if layer is not None:
            return layer
    if len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return None


def module_of_file(filename: str):
    """Dotted ``repro`` module of a source path, or None outside ``repro``."""
    at = filename.rfind(_REPRO_MARK)
    if at < 0 or not filename.endswith(".py"):
        return None
    rel = filename[at + 1:-3]
    return rel.replace(os.sep, ".")


def _layer_of_code(code, cache):
    """Layer of one profile entry; None for the benchmark's own frames."""
    if isinstance(code, str):
        return "builtins"          # a C function: heapq, numpy, generator send
    filename = code.co_filename
    layer = cache.get(filename, cache)
    if layer is cache:
        if os.path.abspath(filename).startswith(_PERF_DIR + os.sep):
            layer = None
        else:
            module = module_of_file(filename)
            layer = "builtins" if module is None else (
                layer_of_module(module) or "builtins")
        cache[filename] = layer
    return layer


def unresolved_prefixes():
    """Declared prefixes whose module no longer exists (a later change
    renamed or deleted it): their rows read zero and the run lists them."""
    missing = []
    for prefix in LAYER_PREFIXES:
        name = prefix[:-len(".__init__")] if prefix.endswith(".__init__") \
            else prefix
        try:
            found = importlib.util.find_spec(name) is not None
        except (ImportError, ValueError):
            found = False
        if not found:
            missing.append(prefix)
    return missing


def layer_table(stats, traced_wall_s: float) -> dict:
    """Fold ``cProfile`` entries into ``{layer: {self_s, calls_in}}`` plus the
    unattributed share of the traced pass."""
    table = {layer: {"self_s": 0.0, "calls_in": 0} for layer in LAYERS}
    cache: dict = {}
    attributed = 0.0
    for entry in stats:
        layer = _layer_of_code(entry.code, cache)
        if layer is not None:
            table[layer]["self_s"] += entry.inlinetime
            attributed += entry.inlinetime
        for sub in entry.calls or ():
            callee = _layer_of_code(sub.code, cache)
            if callee is not None and callee != layer:
                table[callee]["calls_in"] += sub.callcount
    share = 1.0 - attributed / traced_wall_s if traced_wall_s > 0 else 0.0
    return {"layers": table, "unattributed_share": max(share, 0.0)}


def traced(fn):
    """Run ``fn()`` under the profile hook; returns ``(result, wall_s,
    table)`` where ``table`` is :func:`layer_table` of the pass."""
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    return result, wall, layer_table(profiler.getstats(), wall)
