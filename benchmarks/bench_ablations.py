"""Ablation benchmarks for the paper's discussed-but-configurable design
choices (DESIGN.md §5): exit-delay policy, per-signal cost, queue strategy
and the eager-limit fallback."""

from repro.experiments import ablations

from conftest import JOBS, SEED, iters, run_once, save_bench_json, \
    save_table


def test_ablation_exit_delay(benchmark):
    def run():
        return ablations.ablate_exit_delay(iterations=iters(60), seed=SEED,
                                           jobs=JOBS)

    table, points = run_once(benchmark, run)
    save_table("ablation_exit_delay", table.render())
    save_bench_json("ablation_exit_delay", points)
    print()
    print(table.render())
    signals = table._find("signals@noskew").values
    # every lingering policy avoids signals relative to 'none' (index 0)
    assert all(s <= signals[0] for s in signals[1:])


def test_ablation_signal_cost(benchmark):
    def run():
        return ablations.ablate_signal_cost(iterations=iters(60), seed=SEED,
                                            jobs=JOBS)

    table, points = run_once(benchmark, run)
    save_table("ablation_signal_cost", table.render())
    save_bench_json("ablation_signal_cost", points)
    print()
    print(table.render())
    factors = table._find("factor").values
    utils = table._find("ab util").values
    # costlier signals -> higher ab utilization -> smaller factor
    assert utils == sorted(utils)
    assert factors == sorted(factors, reverse=True)
    # even at 20us per signal the ab build still wins under heavy skew
    assert factors[-1] > 2.0


def test_ablation_queue_strategy(benchmark):
    def run():
        return ablations.ablate_queue_strategy(iterations=iters(60),
                                               seed=SEED, jobs=JOBS)

    table, points = run_once(benchmark, run)
    save_table("ablation_queue_strategy", table.render())
    save_bench_json("ablation_queue_strategy", points)
    print()
    print(table.render())
    skewed = table._find("util@skew1000").values
    # the rejected reuse-MPICH-queues design costs more CPU (extra copies)
    assert skewed[1] > skewed[0]


def test_ablation_eager_limit(benchmark):
    def run():
        return ablations.ablate_eager_limit(iterations=iters(20, 2),
                                            seed=SEED, jobs=JOBS)

    table, points = run_once(benchmark, run)
    save_table("ablation_eager_limit", table.render())
    save_bench_json("ablation_eager_limit", points)
    print()
    print(table.render())
    factors = table._find("factor vs nab").values
    limited = table._find("ab util (limit 512B)").values
    free = table._find("ab util (limit 16K)").values
    # below the 512B limit the two builds behave alike...
    assert abs(limited[0] - free[0]) < 0.25 * free[0]
    # ...beyond it the limited build collapses to nab-like utilization
    assert limited[-1] > 2.0 * free[-1]
    assert factors[-1] < 1.5
    assert factors[0] > 2.5
