#!/usr/bin/env python
"""Communication/computation overlap with the split-phase extensions.

Demonstrates the paper's future-work direction (Sec. II: even the root
"would enable optimization ... a split-phase implementation"):

1. **Split-phase reduce** (``SplitPhaseReduce``) — the 2003-era precursor
   of MPI-3 ``MPI_Ireduce``: even the *root* starts the reduction, computes
   while NIC signals fold in children, and collects the result at ``wait``.
2. **Application-bypass broadcast** (``AbBroadcast``, the companion CCGrid
   2003 work): internal nodes forward broadcast data down the tree the
   moment it arrives, before the application even asks for it.

Run:  python examples/compute_overlap.py
"""

import numpy as np

from repro import MpiBuild, SUM, paper_cluster, run_program
from repro.core import AbBroadcast, SplitPhaseReduce

ELEMENTS = 32
COMPUTE_US = 500.0


def program(mpi):
    split = SplitPhaseReduce(mpi.ab_engine)
    bcaster = AbBroadcast(mpi.ab_engine)
    bcaster.register_comm(mpi.comm_world)

    # --- phase 1: split-phase reduce overlapped with root's own work ----
    data = np.full(ELEMENTS, float(mpi.rank + 1), dtype=np.float64)
    t0 = mpi.now
    handle = yield from split.start(data, SUM, 0, mpi.comm_world)
    start_us = mpi.now - t0
    yield from mpi.compute(COMPUTE_US)          # overlapped computation
    t1 = mpi.now
    result = yield from split.wait(handle)
    wait_us = mpi.now - t1

    # --- phase 2: skewed ab-broadcast of the answer ----------------------
    yield from mpi.compute(float(mpi.rank) * 20.0)   # stagger the ranks
    if mpi.rank == 0:
        answer = yield from bcaster.bcast(result, 0, mpi.comm_world)
    else:
        answer = yield from bcaster.bcast(None, 0, mpi.comm_world)

    yield from mpi.barrier()
    return start_us, wait_us, float(answer[0])


def main() -> None:
    size = 16
    expected = float(sum(range(1, size + 1)))
    out = run_program(paper_cluster(size, seed=9), program, build=MpiBuild.AB)
    for rank, (start_us, wait_us, value) in enumerate(out.results):
        assert value == expected, (rank, value, expected)
    starts = np.array([r[0] for r in out.results])
    waits = np.array([r[1] for r in out.results])
    root_wait = out.results[0][1]
    print(f"{size} ranks, {ELEMENTS}-element split-phase reduce overlapped "
          f"with {COMPUTE_US:.0f} us of computation")
    print(f"reduce start() cost: mean {starts.mean():.1f} us "
          f"(max {starts.max():.1f} us) — nobody blocks")
    print(f"reduce wait() cost at the root: {root_wait:.1f} us "
          f"(the {COMPUTE_US:.0f} us compute hid the whole tree)")
    print(f"reduce wait() cost elsewhere: max {waits[1:].max():.1f} us")
    print(f"broadcast answer verified on all ranks: {expected:.0f}")
    eng = out.contexts[4].ab_engine     # rank 4 is internal (children 5, 6)
    bc = eng.bcast
    print(f"rank 4 forwarded {bc.stats.forwards} bcast packet(s) to its "
          f"subtree the moment the data arrived")


if __name__ == "__main__":
    main()
