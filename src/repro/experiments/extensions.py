"""Extension experiments (the paper's Sec. VII future work, measured):

1. NIC-based reduction vs. host-side application bypass vs. default —
   refs. [10]/[11]'s trade-off;
2. application-kernel evaluation — where bypass helps real communication
   skeletons, and where synchronizing collectives cap it;
3. pipelined CG with the split-phase reduce — the remedy for case 2.
"""

from __future__ import annotations

import numpy as np

from ..apps import cg_pipelined, compare_builds, conjugate_gradient
from ..bench.nicred import nicred_latency
from ..bench.report import Table
from ..bench.sweep import sweep
from ..config import paper_cluster
from ..mpich.rank import MpiBuild
from ..orchestrate.points import ConfigSpec, SweepPoint
from ..runtime.program import run_program
from .common import ExperimentOutput


#: Reduction implementation -> (build, point kind); the series labels of
#: the NIC-reduction comparison.
NICRED_IMPLS = {"nab": ("nab", "cpu_util"), "host-ab": ("ab", "cpu_util"),
                "nic-based": ("ab", "nicred_cpu_util")}


def run_nicred(*, size: int = 16, iterations: int = 30, seed: int = 1,
               jobs: int = 1, progress=None) -> ExperimentOutput:
    element_sizes = (4, 32, 128, 512)
    spec = ConfigSpec("paper", size, seed)
    cells = sweep(
        {"elements": element_sizes, "impl": tuple(NICRED_IMPLS)},
        lambda elements, impl: SweepPoint(
            experiment="ext_nicred", kind=NICRED_IMPLS[impl][1],
            config=spec, build=NICRED_IMPLS[impl][0], elements=elements,
            max_skew_us=1000.0, iterations=iterations),
        jobs=jobs, progress=progress)
    table = Table(f"NIC-based vs host-ab vs nab: CPU util @1000us skew "
                  f"({size} nodes)", "elements", element_sizes)
    cells.fill(table, "avg_util_us", along="elements", label="{impl}")
    nab, ab, nic = (table._find(impl).values for impl in NICRED_IMPLS)
    out = ExperimentOutput("ext_nicred", [table], points=cells.points)
    out.claim("NIC-based reduction beats nab on host CPU at every size: "
              + ", ".join(f"{e}: {x:.1f} vs {n:.1f}us"
                          for e, x, n in zip(element_sizes, nic, nab)),
              all(x < n for x, n in zip(nic, nab)))
    small = [(e, x, a) for e, x, a in zip(element_sizes, nic, ab)
             if e <= 128]
    out.claim("NIC-based reduction is within 3us of host-ab up to 128 "
              "elements: " + ", ".join(f"{e}: {x:.1f} vs {a:.1f}us"
                                       for e, x, a in small),
              all(x < a + 3.0 for _e, x, a in small))
    return out


def run_apps(*, size: int = 16, seed: int = 1,
             progress=None) -> ExperimentOutput:
    cases = [
        ("jacobi", dict(iterations=15, imbalance=1.0)),
        ("cg", dict(iterations=10)),
        ("particles", dict(iterations=15)),
        ("particles", dict(iterations=15, rebalance_every=5)),
    ]
    table = Table(f"Application kernels ({size} ranks): non-root us "
                  "blocked in collectives", "case", list(range(len(cases))))
    nab_col, ab_col, gains = [], [], {}
    for kernel, kwargs in cases:
        comp = compare_builds(kernel, paper_cluster(size, seed=seed),
                              **kwargs)
        label = kernel + ("+bcast" if kwargs.get("rebalance_every") else "")
        nab_col.append(comp.nonroot_mean_collective_us(MpiBuild.DEFAULT))
        ab_col.append(comp.nonroot_mean_collective_us(MpiBuild.AB))
        gains[label] = comp.blocking_improvement
        if progress:
            progress(comp.summary())
    table.add_series("nab", nab_col)
    table.add_series("ab", ab_col)
    table.add_series("improvement", list(gains.values()))
    table.title += "  [" + ", ".join(f"{i}={l}" for i, l in
                                     enumerate(gains)) + "]"
    out = ExperimentOutput("apps", [table])
    out.claim(f"reduction-punctuated kernels gain: jacobi "
              f"{gains['jacobi']:.2f}x (above 2), particles "
              f"{gains['particles']:.2f}x (above 1.5)",
              gains["jacobi"] > 2.0 and gains["particles"] > 1.5)
    out.claim(f"synchronizing collectives cap the gain (Sec. II): cg "
              f"{gains['cg']:.2f}x (below 2), particles+bcast "
              f"{gains['particles+bcast']:.2f}x (below particles)",
              gains["cg"] < 2.0
              and gains["particles+bcast"] < gains["particles"])
    return out


def run_pipelined_cg(*, size: int = 16, iterations: int = 12, seed: int = 1,
                     progress=None) -> str:
    blocking = run_program(paper_cluster(size, seed=seed),
                           conjugate_gradient(iterations=iterations),
                           build=MpiBuild.AB)
    pipelined = run_program(paper_cluster(size, seed=seed),
                            cg_pipelined(iterations=iterations),
                            build=MpiBuild.AB)
    b_wall = float(np.mean([s.wall_us for s in blocking.results]))
    p_wall = float(np.mean([s.wall_us for s in pipelined.results]))
    b_coll = float(np.mean([s.collective_us for s in blocking.results]))
    p_coll = float(np.mean([s.collective_us for s in pipelined.results]))
    line = (f"pipelined CG ({size} ranks, {iterations} iters): wall "
            f"{b_wall:.0f} -> {p_wall:.0f}us ({b_wall / p_wall:.2f}x), "
            f"collective blocking {b_coll:.0f} -> {p_coll:.0f}us "
            f"({b_coll / p_coll:.2f}x)")
    if progress:
        progress(line)
    return line


def run(*, iterations: int = 30, seed: int = 1, jobs: int = 1,
        progress=None) -> ExperimentOutput:
    out = ExperimentOutput("extensions")
    out.add(run_nicred(iterations=iterations, seed=seed, jobs=jobs,
                       progress=progress))
    out.add(run_apps(seed=seed, progress=progress))
    out.notes.append(run_pipelined_cg(seed=seed, progress=progress))
    cfg = paper_cluster(16, seed=seed)
    lat_small = nicred_latency(cfg, elements=4, iterations=iterations)
    lat_big = nicred_latency(cfg, elements=512, iterations=iterations)
    out.claim(
        f"nicred latency {lat_small:.1f}us @4 elements vs {lat_big:.1f}us "
        "@512 — ref. [11]'s slow-NIC-ALU caveat (more than 30us apart)",
        lat_big > lat_small + 30.0)
    return out
