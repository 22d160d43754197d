#!/usr/bin/env python
"""Tour of the simulated hardware: the paper's heterogeneous 32-node
Myrinet cluster (Sec. VI).

Prints the interlaced machine roster, the binomial reduction tree, measured
point-to-point latencies between machine classes, and how the reduction
latency scales across the two cluster flavours the paper evaluates.

Run:  python examples/heterogeneous_cluster.py
"""

import numpy as np

from repro import MpiBuild, homogeneous_cluster, paper_cluster
from repro.bench.latency import latency_benchmark, measure_one_way
from repro.topo import ranks as tree


def show_roster() -> None:
    config = paper_cluster(32)
    print("machine roster (paper: two 16-node groups, interlaced):")
    counts: dict[str, int] = {}
    for spec in config.machines:
        counts[spec.name] = counts.get(spec.name, 0) + 1
    for name, count in counts.items():
        print(f"  {count:2d} x {name}")
    print(f"  first 8 slots: "
          f"{[config.machines[i].name.split('/')[0] for i in range(8)]}")


def show_tree(size: int = 16) -> None:
    print(f"\nbinomial reduction tree, {size} ranks, root 0 "
          f"(paper Fig. 1 is the 8-rank version):")
    by_depth: dict[int, list[int]] = {}
    for rel in range(size):
        by_depth.setdefault(tree.depth(rel), []).append(rel)
    for depth in sorted(by_depth):
        nodes = by_depth[depth]
        label = {0: "root", 1: "children of root"}.get(
            depth, f"depth {depth}")
        print(f"  depth {depth} ({label}): {nodes}")
    last = tree.deepest_relative_rank(size)
    print(f"  'last node' (latency benchmark peer): rank {last}")


def show_pt2pt() -> None:
    print("\none-way small-message latency (GM eager path):")
    pairs = [(0, 2, "700MHz <-> 700MHz"),
             (1, 3, "1GHz  <-> 1GHz"),
             (0, 1, "700MHz <-> 1GHz")]
    for a, b, label in pairs:
        one_way = measure_one_way(paper_cluster(8, seed=3), a, b)
        print(f"  {label}: {one_way:.2f} us")


def show_scaling() -> None:
    print("\nreduction latency scaling (no skew, 1 double):")
    print(f"  {'nodes':>5}  {'heterogeneous':>14}  {'homogeneous':>12}")
    for n in (2, 4, 8, 16):
        het = latency_benchmark(paper_cluster(n, seed=5), MpiBuild.DEFAULT,
                                elements=1, iterations=60)
        hom = latency_benchmark(homogeneous_cluster(n, seed=5),
                                MpiBuild.DEFAULT, elements=1, iterations=60)
        print(f"  {n:>5}  {het.avg_latency_us:>11.1f} us"
              f"  {hom.avg_latency_us:>9.1f} us")
    print("  (the paper found the two nearly identical up to 16 nodes)")


def main() -> None:
    show_roster()
    show_tree()
    show_pt2pt()
    show_scaling()


if __name__ == "__main__":
    main()
