"""fig_topo benchmark: the topology/tree-shape registries under the
orchestrator's determinism contract.

Runs a reduced fig_topo grid (every topology, two contrasting tree
shapes) twice — serially and through the process pool — and asserts
bit-identical metrics, a violation-free invariant report (INV-FIFO
included: the multi-hop topologies must preserve per-pair FIFO), and a
clean self-compare of the emitted BENCH_fig_topo.json.
"""

import pytest

from repro.experiments import fig_topo
from repro.orchestrate.benchjson import load_bench_json
from repro.orchestrate.compare import compare_payloads

from conftest import JOBS, SEED, iters, run_once, save_bench_json

pytestmark = pytest.mark.smoke


def test_fig_topo_parallel_merge_matches_serial(benchmark):
    jobs = max(2, JOBS)
    # size 16 spans two fat-tree edge switches (8 hosts each), so
    # cross-edge traffic really takes the 3-hop spine path
    def grid(jobs):
        return fig_topo.run(size=16, elements=4,
                            shapes=(("binomial", 2), ("chain", 2)),
                            skews=(1000.0,), iterations=iters(8, 5),
                            seed=SEED, jobs=jobs).points

    serial = grid(1)
    parallel = run_once(benchmark, lambda: grid(jobs))
    # bit-identical across --jobs, for every topology and tree shape
    assert [r.point.key() for r in parallel] == \
        [r.point.key() for r in serial]
    assert [r.metrics for r in parallel] == [r.metrics for r in serial]
    assert [r.counters for r in parallel] == [r.counters for r in serial]
    # the whole grid ran under the invariant monitor (INV-FIFO included)
    assert all((r.invariant_report or {}).get("violation_count", 0) == 0
               for r in parallel)
    # the multi-hop topologies actually took multi-hop routes
    by_topo = {r.point.config.net.topology: r.counters for r in parallel}
    assert by_topo["fattree"]["net_hops"] > by_topo["crossbar"]["net_hops"]
    assert by_topo["torus"]["net_hops"] > by_topo["crossbar"]["net_hops"]

    path = save_bench_json("fig_topo", parallel, jobs=jobs)
    payload = load_bench_json(path)
    verdict = compare_payloads(payload, payload)
    assert verdict["ok"]
    assert verdict["shared_points"] == len(serial) == 3 * 2 * 2
