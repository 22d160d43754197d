"""Smoke tests for the figure-reproduction drivers (tiny configurations:
``python -m repro.experiments all`` checks every claim at full size)."""

import pytest

from repro.experiments import EXPERIMENTS, ablations, fig6, fig7, fig8, \
    fig9, fig10, fig_faults, fig_topo
from repro.experiments.__main__ import main
from repro.experiments.common import ExperimentOutput
from repro.experiments.fig8 import crossover_size


def test_fig6_driver_small():
    # The paper's 32 nodes: below that the unskewed cells are Fig. 8's
    # regime, where ab pays its overhead and loses.
    skews, sizes = (0.0, 500.0), (4, 128)
    out = fig6.run(size=32, skews=skews, element_sizes=sizes,
                   iterations=6, seed=1)
    table = out.tables[0]
    assert [s.label for s in table.series] == [
        "nab-4", "nab-128", "ab-4", "ab-128", "factor-4", "factor-128"]
    assert table._find("nab-4").values[1] > table._find("nab-4").values[0]
    # Paper headline: the bypass build wins at every (skew, size) cell.
    for elements in sizes:
        nab = table._find(f"nab-{elements}").values
        ab = table._find(f"ab-{elements}").values
        assert all(a <= n for a, n in zip(ab, nab)), (elements, ab, nab)
        assert table._find(f"factor-{elements}").values == \
            [n / a for n, a in zip(nab, ab)]
    # ...and each series really is its (build, size) cell of the sweep.
    by_cell = {(r.point.build, r.point.elements, r.point.max_skew_us):
               r.metrics["avg_util_us"] for r in out.points}
    assert table._find("ab-128").values == \
        [by_cell["ab", 128, skew] for skew in skews]
    assert out.claims[0].text.startswith("ab uses no more CPU than nab")
    assert out.claims[0].holds


def test_fig7_driver_small():
    sizes = (2, 4, 8)
    out = fig7.run(sizes=sizes, element_sizes=(4,), iterations=10, seed=1)
    table = out.tables[0]
    assert table.x_values == list(sizes)
    factors = table._find("factor-4").values
    # Paper headline: the factor of improvement grows with system size.
    assert len(factors) == 3
    assert factors[0] < factors[1] < factors[2]
    by_cell = {(r.point.build, r.point.config.size):
               r.metrics["avg_util_us"] for r in out.points}
    assert table._find("nab-4").values == [by_cell["nab", n] for n in sizes]
    assert table._find("ab-4").values == [by_cell["ab", n] for n in sizes]


def test_fig8_driver_small():
    out = fig8.run(sizes=(2, 8), element_sizes=(4,), iterations=10, seed=1)
    assert len(out.tables[0].x_values) == 2


def test_fig9_driver_small():
    out = fig9.run(hetero_sizes=(2, 4), homo_sizes=(2,), iterations=10,
                   seed=1)
    hetero, homo = out.tables
    assert hetero._find("nab").values[1] > hetero._find("nab").values[0]


def test_fig10_driver_small():
    out = fig10.run(size=8, element_sizes=(1, 64), iterations=10, seed=1)
    nab = out.tables[0]._find("nab").values
    assert nab[1] > nab[0]


def test_fig_topo_driver_small():
    out = fig_topo.run(size=8, elements=4,
                       topologies=("crossbar", "torus"),
                       shapes=(("binomial", 2), ("chain", 2)),
                       skews=(0.0, 500.0), iterations=8, seed=1)
    table = out.tables[0]
    # one series per (topology, shape, build) combination
    assert len(table.series) == 2 * 2 * 2
    # AB beats nab at high skew on every topology/shape combination
    for topo in ("crossbar", "torus"):
        for shape in ("binomial", "chain"):
            nab = table._find(f"{topo}/{shape}-nab").values
            ab = table._find(f"{topo}/{shape}-ab").values
            assert nab[-1] > ab[-1]
    texts = {claim.text.split(":")[0]: claim.holds for claim in out.claims}
    assert texts["ab wins at skew 500us on every topology and tree shape"]
    assert texts["multi-hop topologies take multi-hop routes"]
    assert texts["invariant violations across the sweep (incl. INV-FIFO)"]


def test_fig_faults_driver_small():
    out = fig_faults.run(size=8, rates=(0.0, 0.05), topologies=("crossbar",),
                         iterations=4, seed=1)
    table = out.tables[0]
    assert table.x_values == [0.0, 0.05]
    assert [s.label for s in table.series] == ["crossbar-nab", "crossbar-ab"]
    # Each series is its build's loss sweep, addressed by point, not by
    # position in the result list.
    loss = {(r.point.build, r.point.config.faults is not None):
            r.metrics["makespan_us"]
            for r in out.points if r.point.config.net is not None}
    for build in ("nab", "ab"):
        assert table._find(f"crossbar-{build}").values == \
            [loss[build, False], loss[build, True]]
    # One note per (scenario, build) the scenario table allows, in its
    # own order — suppression and crash are AB-only.
    scenario_notes = [n.split(":")[0] for n in out.notes if "/" in n]
    assert scenario_notes == [
        "degrade/nab", "degrade/ab", "suppress/ab", "pause/nab", "pause/ab",
        "crash+heal/ab"]
    crash = next(n for n in out.notes if n.startswith("crash+heal/ab"))
    assert "last=29" in crash and "subtrees_healed" in crash
    assert [(c.text, c.holds) for c in out.claims] == [
        ("points with a wrong surviving-rank result: 0", True),
        ("invariant violations across the sweep (incl. INV-FAULT): 0", True)]


def test_crossover_size_helper():
    assert crossover_size((2, 4, 8), (0.5, 1.2, 1.4)) == 4
    assert crossover_size((2, 4), (0.5, 0.6)) is None
    assert crossover_size((2,), (1.0,)) == 2


def test_ablation_exit_delay_small():
    out = ablations.ablate_exit_delay(size=8, iterations=8, seed=1)
    (table,), points = out.tables, out.points
    assert len(table._find("signals@noskew").values) == 4
    # policy-major, skewed before unskewed; 'none' raises the most signals
    assert [(r.point.config.ab.exit_delay_policy, r.point.max_skew_us)
            for r in points[:3]] == [("none", 1000.0), ("none", 0.0),
                                     ("fixed", 1000.0)]
    assert table._find("signals@noskew").values[0] == \
        points[1].metrics["signals"]


def test_cli_dispatcher():
    assert main([]) == 0                      # help
    assert main(["not-a-fig"]) == 2           # unknown


def test_cli_runs_quick_fig(capsys):
    assert main(["fig6", "--iterations", "8", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "factor-4" in out
    assert "factor at max skew, 4 elements" in out


def test_all_refuses_one_bench_json_path(monkeypatch, tmp_path, capsys):
    """One PATH cannot hold every driver's record: ``all`` refuses it in
    one line before any driver runs (bare ``--bench-json`` writes one
    ``BENCH_<name>.json`` per driver)."""
    ran = []
    for name, (_run, title, count) in list(EXPERIMENTS.items()):
        monkeypatch.setitem(EXPERIMENTS, name, (
            lambda name=name, **_: ran.append(name), title, count))
    assert main(["all", "--bench-json", str(tmp_path / "one.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ran == [] and not list(tmp_path.iterdir())
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_failing_claim_is_marked():
    out = ExperimentOutput("toy")
    out.claim("holds", True)
    out.claim("does not", 0.5 > 1.0)
    out.notes.append("a note")
    assert out.render() == ("Notes:\n  - holds\n  - FAILS: does not\n"
                            "  - a note")


@pytest.mark.parametrize("holds, status", [(True, 0), (False, 1)])
def test_cli_exits_1_when_a_claim_fails(monkeypatch, capsys, holds, status):
    """Standard output is the record; progress goes to stderr."""
    def toy(*, iterations, seed, jobs, progress):
        progress("a point")
        out = ExperimentOutput("toy")
        out.claim("the toy claim", holds)
        return out

    monkeypatch.setitem(EXPERIMENTS, "toy", (toy, "Toy", 1))
    assert main(["toy"]) == status
    out, err = capsys.readouterr()
    assert out == ("\n## Toy\n\nNotes:\n  - " + "FAILS: " * (not holds)
                   + "the toy claim\n")
    assert err == "    a point\n"


def test_every_experiment_makes_a_claim_at_quick_counts():
    """``all`` checks only what the drivers claim: each entry claims
    something at the counts of ``--iterations 5 --quick``."""
    silent = [name for name, (run, _, _) in EXPERIMENTS.items()
              if not run(iterations=5, seed=1).claims]
    assert not silent
