#!/usr/bin/env python
"""PAP workloads: replaying a bursty arrival trace through SRA vs ab.

Generates a bursty 32-rank arrival pattern (one correlated straggler
group arriving ~2 ms late), round-trips it through the JSON form of
:class:`repro.workload.ArrivalTrace` — the way a recorded trace would
ship between machines — and replays it bit-exactly with
``pattern="trace_replay"`` under two allreduce algorithms: the paper's
application-bypass (``ab``) and Proficz's sorted-arrival tree (``sra``),
which reads the trace's arrival oracle and places the stragglers next to
the root.  With one dominant straggler group almost the entire reduction
overlaps the stragglers' delay, so SRA finishes earlier than ab.

Run:  python examples/pap_workload.py
"""

from dataclasses import replace

from repro.bench.pap import pap_benchmark
from repro.config import WorkloadParams, quiet_cluster
from repro.sim.random import RngStreams
from repro.workload import ArrivalTrace, generate_trace

SIZE = 32
ITERATIONS = 4


def record_bursty_trace() -> ArrivalTrace:
    """The 'recorded' trace: one bursty pattern, fixed seed."""
    bursty = WorkloadParams(pattern="bursty", scale_us=2000.0,
                            jitter_us=40.0, straggler_frac=0.2)
    return generate_trace(bursty, SIZE, ITERATIONS + 1, RngStreams(2003))


def main() -> None:
    recorded = record_bursty_trace()
    wire = recorded.to_json()
    replayed = ArrivalTrace.from_json(wire)
    assert replayed == recorded and replayed.to_json() == wire
    print(f"recorded a bursty {recorded.nranks}-rank trace "
          f"({recorded.iterations} iterations, {len(wire)} JSON bytes); "
          f"round trip is lossless and byte-stable")
    print(f"iteration 0 arrival spread: {recorded.spread(0):.0f}us, "
          f"last to arrive: rank {recorded.order(0)[-1]}")

    config = replace(quiet_cluster(SIZE, seed=31), workload=WorkloadParams(
        pattern="trace_replay", trace=replayed.delays))
    print(f"\nreplaying through allreduce on {SIZE} ranks:")
    makespans = {}
    for algo in ("ab", "sra"):
        r = pap_benchmark(config, algo=algo, elements=256,
                          iterations=ITERATIONS, warmup=1)
        makespans[algo] = r.avg_makespan_us
        print(f"  {algo:<4} avg makespan {r.avg_makespan_us:>8.1f}us  "
              f"(kappa={r.arrival_stats['arrival_kappa']:.2f})")
    gain = makespans["ab"] / makespans["sra"]
    print(f"\nsorted-arrival tree vs application-bypass: {gain:.2f}x — "
          f"with one dominant straggler group, placing late arrivals "
          f"next to the root hides the reduction under their delay.")


if __name__ == "__main__":
    main()
