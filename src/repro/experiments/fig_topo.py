"""fig_topo — CPU utilization across interconnect topologies and
reduction-tree shapes (beyond-the-paper exploration).

The paper's testbed is one 32-port crossbar and a binomial tree; this
experiment sweeps the ``repro.topo`` registries instead: every topology
(crossbar, two-level fat-tree, 2D torus) crossed with the registered tree
shapes, both builds, at zero and maximal injected skew.  The question is
whether the application-bypass advantage (paper Figs. 6-7) survives when
the network has real hop counts and hot spots, and how much a tree
shape's locality changes the picture.
"""

from __future__ import annotations

from typing import Sequence

from ..config import MpiParams, NetParams
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..orchestrate.runner import run_points
from ..bench.report import Table
from .common import ExperimentOutput

#: The swept registries: every topology, and a spread of tree shapes from
#: flattest (knomial radix 4) to deepest (chain).
TOPOLOGIES = ("crossbar", "fattree", "torus")
TREE_SHAPES = (("binomial", 2), ("knomial", 4), ("chain", 2), ("bine", 2))
SKEWS = (0.0, 1000.0)


def _shape_label(shape: str, radix: int) -> str:
    return f"knomial{radix}" if shape == "knomial" else shape


def build_points(*, size: int = 16, elements: int = 4,
                 topologies: Sequence[str] = TOPOLOGIES,
                 shapes: Sequence[tuple] = TREE_SHAPES,
                 skews: Sequence[float] = SKEWS,
                 iterations: int = 60, seed: int = 1,
                 collect_invariants: bool = True) -> list[SweepPoint]:
    """The sweep grid (topology x tree shape x build x skew), in the
    deterministic order the result cursor below expects."""
    return [
        SweepPoint(
            experiment="fig_topo", kind="cpu_util",
            config=ConfigSpec(
                "paper", size, seed,
                net=NetParams(topology=topo),
                mpi=MpiParams(tree_shape=shape, tree_radix=radix)),
            build=build, elements=elements, max_skew_us=skew,
            iterations=iterations,
            collect_invariants=collect_invariants)
        for topo in topologies
        for shape, radix in shapes
        for build in ("nab", "ab")
        for skew in skews
    ]


def run(*, size: int = 16, elements: int = 4,
        topologies: Sequence[str] = TOPOLOGIES,
        shapes: Sequence[tuple] = TREE_SHAPES,
        skews: Sequence[float] = SKEWS,
        iterations: int = 60, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    points = build_points(size=size, elements=elements,
                          topologies=topologies, shapes=shapes, skews=skews,
                          iterations=iterations, seed=seed)
    results = run_points(points, jobs=jobs, progress=progress)

    table = Table(
        f"fig_topo: CPU util (us) vs skew, n={size}, {elements} elements",
        "skew_us", list(skews))
    cursor = iter(results)
    max_util: dict[str, float] = {}
    hot: dict[str, float] = {}
    factors: list[tuple[str, float]] = []
    for topo in topologies:
        for shape, radix in shapes:
            label = f"{topo}/{_shape_label(shape, radix)}"
            by_build = {}
            for build in ("nab", "ab"):
                res = [next(cursor) for _ in skews]
                values = [r.metrics["avg_util_us"] for r in res]
                table.add_series(f"{label}-{build}", values)
                by_build[build] = values
                for r in res:
                    hot[label] = max(
                        hot.get(label, 0.0),
                        float(r.counters.get("net_max_port_utilization",
                                             0.0)))
            # AB improvement factor at maximal skew for this combination.
            factors.append(
                (label, by_build["nab"][-1] / by_build["ab"][-1]))

    out = ExperimentOutput("fig_topo", [table], points=results)
    best = max(factors, key=lambda kv: kv[1])
    worst = min(factors, key=lambda kv: kv[1])
    out.notes.append(
        f"AB factor of improvement at skew {skews[-1]:g}us: "
        f"best {best[1]:.2f} on {best[0]}, "
        f"worst {worst[1]:.2f} on {worst[0]}")
    if hot:
        hottest = max(hot.items(), key=lambda kv: kv[1])
        out.notes.append(
            f"hottest network port utilization: {hottest[1]:.3f} "
            f"({hottest[0]})")
    violations = sum((r.invariant_report or {}).get("violation_count", 0)
                     for r in results)
    out.notes.append(
        f"invariant violations across the sweep (incl. INV-FIFO): "
        f"{violations}")
    return out
