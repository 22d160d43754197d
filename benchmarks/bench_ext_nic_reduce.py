"""Extension benchmark: NIC-based reduction vs. host-side application
bypass vs. default MPICH — the paper's future-work direction (Sec. VII)
and ref. [11]'s question, "NIC-Based Reduction in Myrinet Clusters: Is It
Beneficial?".

Expected trade-off:

* host CPU under skew: nicred < ab << nab (internal hosts pay one hand-off);
* latency: nicred is competitive for small messages but pays the slow
  LANai ALU dearly as the element count grows — the crossover that made
  ref. [11] pose its title question.
"""

from repro.bench.report import Table
from repro.bench.sweep import sweep
from repro.experiments.extensions import NICRED_IMPLS
from repro.orchestrate.points import ConfigSpec, SweepPoint

from conftest import JOBS, SEED, iters, run_once, save_bench_json, \
    save_table


def test_ext_nic_reduce(benchmark):
    size = 16
    element_sizes = (4, 32, 128, 512)
    spec = ConfigSpec("paper", size, SEED)

    def run():
        cpu = sweep(
            {"elements": element_sizes, "impl": tuple(NICRED_IMPLS)},
            lambda elements, impl: SweepPoint(
                experiment="ext_nic_reduce", kind=NICRED_IMPLS[impl][1],
                config=spec, build=NICRED_IMPLS[impl][0],
                elements=elements, max_skew_us=1000.0,
                iterations=iters(20, 2)),
            jobs=JOBS)
        latency = sweep(
            {"elements": (4, 512)},
            lambda elements: SweepPoint(
                experiment="ext_nic_reduce", kind="nicred_latency",
                config=spec, build="ab", elements=elements,
                iterations=iters(20, 2)),
            jobs=JOBS)
        return cpu, latency

    cpu, latency = run_once(benchmark, run)
    save_bench_json("ext_nic_reduce", cpu.points + latency.points)
    rows = {e: tuple(cpu[e, impl].metrics["avg_util_us"]
                     for impl in ("nab", "host-ab", "nic-based"))
            for e in element_sizes}
    lat = {e: latency[e].metrics["avg_latency_us"] for e in (4, 512)}
    table = Table(f"Extension: host CPU utilization under 1000us skew "
                  f"({size} nodes) — nab vs host-ab vs NIC-based",
                  "elements", element_sizes)
    cpu.fill(table, "avg_util_us", along="elements", label="{impl}")
    text = table.render() + (
        f"\n\nnicred latency: {lat[4]:.1f}us @4 elements, "
        f"{lat[512]:.1f}us @512 elements (slow LANai ALU)")
    save_table("ext_nic_reduce", text)
    print()
    print(text)

    for elements, (nab, ab, nic) in rows.items():
        assert nic < nab            # NIC-based always beats default on CPU
        if elements <= 128:
            assert nic < ab + 3.0   # and is at least competitive with ab
    # ref [11]'s caveat: latency pays for the slow NIC ALU at large sizes
    assert lat[512] > lat[4] + 30.0
