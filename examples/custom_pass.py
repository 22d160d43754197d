#!/usr/bin/env python
"""Writing a custom schedule rewrite pass (repro.schedule).

Collective schedules are *data* (DESIGN.md Sec. 15): a ``Schedule`` is a
frozen, JSON-round-trippable program of per-rank send/recv/fold/wait
steps, and a rewrite pass is just a function ``Schedule -> Schedule``
registered by name.  Once registered, every driver in the repo — the
scheduled benchmark, ``orchestrate smoke schedule``, the autotuner — can
apply your pass by name, and the validator checks the result the same
way it checks the built-in lowerings.

This example registers a 3-line pass that re-lowers a reduction onto a
chain (pipeline) tree, shows the rewrite on the IR alone, proves the
result still validates and round-trips through JSON, then executes both
variants through the interpreter to compare latency end to end.

Run:  python examples/custom_pass.py
"""

from dataclasses import replace

from repro.bench.scheduled import build_schedule, scheduled_benchmark
from repro.config import PipelineParams, quiet_cluster
from repro.mpich.rank import MpiBuild
from repro.schedule import Schedule, get_pass, register_pass

ELEMENTS = 1024          # 8 KiB payload -> 4 segments at 2048 B
SIZE = 8


@register_pass("to_chain")
def to_chain(schedule: Schedule) -> Schedule:
    """Re-lower onto a chain tree: with segmented schedules this turns a
    tree reduction into a rank-to-rank pipeline (Lowery & Langou)."""
    return get_pass("reshape_tree")(schedule, shape="chain")


def main():
    config = replace(quiet_cluster(SIZE, seed=11), pipeline=PipelineParams(
        segment_size_bytes=2048, max_inflight_segments=3))

    # ---- the rewrite, on the IR alone (no simulation needed) -----------
    before = build_schedule(config, lowering="reduce.ab", elements=ELEMENTS)
    after = get_pass("to_chain")(before)
    after.validate()
    print("custom pass 'to_chain' registered and applied:")
    print(f"  before: shape={before.meta_dict()['shape']:10} "
          f"steps={before.step_count}")
    print(f"  after:  shape={after.meta_dict()['shape']:10} "
          f"steps={after.step_count}")
    assert Schedule.from_json(after.to_json()) == after
    print("  rewritten schedule validates and round-trips losslessly")

    # ---- end to end: any driver can run the pass by name ---------------
    base = scheduled_benchmark(config, MpiBuild.AB, lowering="reduce.ab",
                               elements=ELEMENTS, iterations=10)
    chain = scheduled_benchmark(config, MpiBuild.AB, lowering="reduce.ab",
                                passes=("to_chain",), elements=ELEMENTS,
                                iterations=10)
    print(f"binomial reduce.ab : {base.avg_latency_us:8.2f} us "
          f"(nseg={base.nseg})")
    print(f"to_chain reduce.ab : {chain.avg_latency_us:8.2f} us "
          f"(nseg={chain.nseg})")
    ratio = base.avg_latency_us / chain.avg_latency_us
    word = "speedup" if ratio >= 1.0 else "slowdown"
    print(f"chain pipeline {word} on {SIZE} ranks: {ratio:.2f}x")


if __name__ == "__main__":
    main()
