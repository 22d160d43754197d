"""fig_topo — CPU utilization across interconnect topologies and
reduction-tree shapes (beyond-the-paper exploration).

The paper's testbed is one 32-port crossbar and a binomial tree; this
experiment sweeps the ``repro.topo`` registries instead: every topology
(crossbar, two-level fat-tree, 2D torus) crossed with the paper's
binomial tree and the deepest shape (chain), both builds, at maximal
injected skew.  The question is whether the application-bypass
advantage (paper Figs. 6-7) survives when the network has real hop
counts and hot spots, and how much a tree shape's locality changes the
picture.
"""

from __future__ import annotations

from typing import Sequence

from ..bench.report import Table
from ..bench.sweep import sweep
from ..mpich.rank import BUILD_TAGS
from ..orchestrate.points import topo_point
from .common import ExperimentOutput

#: The swept registries: every topology, the paper's binomial tree and the
#: deepest shape (chain).  Size 16 spans two fat-tree edge
#: switches (8 hosts each), so cross-edge traffic takes the 3-hop spine path.
TOPOLOGIES = ("crossbar", "fattree", "torus")
TREE_SHAPES = (("binomial", 2), ("chain", 2))
SKEWS = (1000.0,)


def _shape_label(shape: str, radix: int) -> str:
    return f"knomial{radix}" if shape == "knomial" else shape


def run(*, size: int = 16, elements: int = 4,
        topologies: Sequence[str] = TOPOLOGIES,
        shapes: Sequence[tuple] = TREE_SHAPES,
        skews: Sequence[float] = SKEWS,
        iterations: int, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    trees = {_shape_label(*shape): shape for shape in shapes}
    cells = sweep(
        {"topo": topologies, "shape": tuple(trees), "build": BUILD_TAGS,
         "skew": skews},
        lambda topo, shape, build, skew: topo_point(
            "fig_topo", topo, trees[shape], build, size=size, seed=seed,
            iterations=iterations, elements=elements, skew=skew),
        jobs=jobs, progress=progress)

    table = Table(
        f"fig_topo: CPU util (us) vs skew, n={size}, {elements} elements",
        "skew_us", skews)
    cells.fill(table, "avg_util_us", along="skew",
               label="{topo}/{shape}-{build}")
    hot: dict[str, float] = {}
    factors: dict[str, float] = {}
    hops = dict.fromkeys(topologies, 0)
    for topo in topologies:
        for shape in trees:
            label = f"{topo}/{shape}"
            runs = [cells[topo, shape, build, skew]
                    for build in BUILD_TAGS for skew in skews]
            hot[label] = max(float(r.counters.get(
                "net_max_port_utilization", 0.0)) for r in runs)
            hops[topo] += sum(int(r.counters.get("net_hops", 0))
                              for r in runs)
            # AB improvement factor at maximal skew for this combination.
            at_max = {build: cells[topo, shape, build, skews[-1]]
                      .metrics["avg_util_us"] for build in BUILD_TAGS}
            factors[label] = at_max["nab"] / at_max["ab"]

    out = ExperimentOutput("fig_topo", [table], points=cells.points)
    best = max(factors, key=factors.get)
    worst = min(factors, key=factors.get)
    out.claim(
        f"ab wins at skew {skews[-1]:g}us on every topology and tree shape: "
        f"factor best {factors[best]:.2f} on {best}, "
        f"worst {factors[worst]:.2f} on {worst}", factors[worst] > 1.0)
    if "crossbar" in hops:
        out.claim("multi-hop topologies take multi-hop routes: net_hops "
                  + ", ".join(f"{topo} {n}" for topo, n in hops.items()),
                  all(n > hops["crossbar"] for topo, n in hops.items()
                      if topo != "crossbar"))
    out.claim(f"invariant violations across the sweep (incl. INV-FIFO): "
              f"{cells.violations()}", cells.violations() == 0)
    hottest = max(hot, key=hot.get)
    out.notes.append(f"hottest network port utilization: {hot[hottest]:.3f} "
                     f"({hottest})")
    return out
