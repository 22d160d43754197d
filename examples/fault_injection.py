#!/usr/bin/env python
"""Fault injection: application-bypass reduction on a lossy fabric.

Myrinet is nearly lossless, but GM still runs a reliable-delivery protocol
in the NIC control program.  This example drops 10% of all packets and
shows (a) every reduction still computes the right answer, (b) GM's
go-back-N retransmissions absorb the losses, and (c) the application-bypass
advantage under skew survives intact.

Run:  python examples/fault_injection.py
"""

from dataclasses import replace

import numpy as np

from repro import MpiBuild, NetParams, SUM, paper_cluster
from repro.bench.cpu_util import cpu_util_benchmark
from repro.runtime.program import run_program

DROP = 0.10
ROUNDS = 8


def program(mpi):
    results = []
    for i in range(ROUNDS):
        if mpi.rank == (i % mpi.size):      # rotate the straggler
            yield from mpi.compute(200.0)
        r = yield from mpi.reduce(np.full(4, float(mpi.rank + 1 + i)),
                                  op=SUM, root=0)
        if r is not None:
            results.append(float(r[0]))
        yield from mpi.barrier()
    return results


def main() -> None:
    config = replace(paper_cluster(16, seed=21),
                     net=NetParams(drop_prob=DROP,
                                   retransmit_timeout_us=100.0))
    out = run_program(config, program, build=MpiBuild.AB)
    expected = [sum(range(1 + i, 17 + i)) for i in range(ROUNDS)]
    assert out.results[0] == [float(v) for v in expected], out.results[0]

    dropped = out.cluster.fabric.packets_dropped
    retx = sum(n.nic.reliable.stats.retransmissions
               for n in out.cluster.nodes)
    acks = sum(n.nic.reliable.stats.acks_sent for n in out.cluster.nodes)
    print(f"{ROUNDS} reductions on a {DROP:.0%}-lossy fabric: "
          f"all results correct")
    print(f"fabric dropped {dropped} packets; GM retransmitted {retx}, "
          f"sent {acks} ACKs")

    print("\napplication-bypass factor under 1000us skew, with and "
          "without loss:")
    for drop in (0.0, DROP):
        cfg = replace(paper_cluster(16, seed=21),
                      net=NetParams(drop_prob=drop,
                                    retransmit_timeout_us=100.0))
        nab = cpu_util_benchmark(cfg, MpiBuild.DEFAULT, elements=4,
                                 max_skew_us=1000.0, iterations=25)
        ab = cpu_util_benchmark(cfg, MpiBuild.AB, elements=4,
                                max_skew_us=1000.0, iterations=25)
        print(f"  drop={drop:.0%}: nab={nab.avg_util_us:6.1f}us "
              f"ab={ab.avg_util_us:5.1f}us "
              f"factor={nab.avg_util_us / ab.avg_util_us:.2f}")


if __name__ == "__main__":
    main()
