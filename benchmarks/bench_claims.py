"""Every claim of every experiment driver, checked at the counts it was
tuned for.

Each row of :data:`RUNS` runs one ``repro.experiments.EXPERIMENTS``
driver with the axes and iteration counts its claims hold at (virtual
time is noise-free, so far fewer iterations than the paper's 10,000
suffice), writes the rendered output to ``results/<row>.txt`` and the
sweep to ``results/BENCH_<row>.json``, and asserts that every claim the
driver made holds.  The claims themselves live in the drivers, where
``python -m repro.experiments`` prints them::

    PYTHONPATH=src python -m pytest benchmarks --benchmark-disable

``REPRO_JOBS`` sets the worker processes (default 1; the numbers are
bit-identical for any count).
"""

import os
import pathlib

import pytest

from repro.experiments import EXPERIMENTS
from repro.orchestrate.benchjson import write_bench_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JOBS = int(os.environ.get("REPRO_JOBS", "1"))

#: (EXPERIMENTS name, run() arguments), one row per driver at least.
RUNS = [
    ("fig6", dict(skews=(0.0, 250.0, 500.0, 750.0, 1000.0), iterations=40)),
    ("fig7", dict(iterations=40)),
    ("fig8", dict(iterations=60)),
    ("fig9", dict(iterations=60)),
    ("fig10", dict(element_sizes=(1, 16, 32, 64, 96, 128), iterations=50)),
    # Past the paper's sizes, where segmentation starts to pay.
    ("fig10", dict(element_sizes=(64, 512, 1024), segment_sizes=(0, 2048),
                   iterations=40)),
    # Size 16 spans two fat-tree edge switches (8 hosts each), so
    # cross-edge traffic takes the 3-hop spine path.
    ("fig_topo", dict(shapes=(("binomial", 2), ("chain", 2)),
                      skews=(1000.0,), iterations=8)),
    ("fig_faults", dict(iterations=40)),
    ("fig_pipeline", dict(iterations=60)),
    ("fig_schedule", dict(iterations=40)),
    ("fig_tenancy", dict(iterations=10)),
    ("fig_pap", dict(iterations=8)),
    ("ablations", dict(iterations=60)),
    ("extensions", dict(iterations=20)),
    ("scale", dict(iterations=20)),
]


def row_id(row) -> str:
    """The results file stem: the driver's name, ``_segments`` for the
    row that arms Fig. 10's segment axis."""
    name, kwargs = row
    return f"{name}_segments" if "segment_sizes" in kwargs else name


@pytest.mark.parametrize("row", RUNS, ids=row_id)
def test_claims_hold(benchmark, row):
    name, kwargs = row
    run = EXPERIMENTS[name][0]
    out = benchmark.pedantic(lambda: run(seed=1, jobs=JOBS, **kwargs),
                             rounds=1, iterations=1, warmup_rounds=0)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{row_id(row)}.txt").write_text(out.render() + "\n")
    if out.points:
        write_bench_json(row_id(row), out.points, directory=RESULTS_DIR,
                         jobs=JOBS)
    print(f"\n{out.render()}")
    assert out.claims, f"{name} makes no claim"
    failed = [claim.text for claim in out.claims if not claim.holds]
    assert not failed, "\n".join(failed)
