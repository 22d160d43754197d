"""Smoke tests: every shipped example must run end to end and make its
point (examples are documentation that executes)."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = sorted(p.stem for p in EXAMPLES_DIR.glob("*.py"))


def test_every_example_is_covered():
    """Keep this list in sync: a new example must get a smoke test."""
    assert ALL_EXAMPLES == ["compute_overlap", "custom_pass",
                            "fault_injection", "heterogeneous_cluster",
                            "multi_tenant", "pap_workload", "quickstart",
                            "skew_tolerance", "timeline_demo"]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_runs_as_script(name):
    """Every file in examples/ must run green exactly as the README says:
    ``PYTHONPATH=src python examples/<name>.py`` from a clean checkout —
    a fresh interpreter, not this test process's import state."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, (
        f"examples/{name}.py exited {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}")
    assert proc.stdout.strip(), f"examples/{name}.py printed nothing"


def test_quickstart(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "ranks stuck >100us inside MPI_Reduce: [0, 2]" in out
    assert "ranks stuck >100us inside MPI_Reduce: [0]" in out


def test_skew_tolerance(capsys):
    load_example("skew_tolerance").main()
    out = capsys.readouterr().out
    assert "cuts non-root reduction blocking by" in out
    factor = float(out.rsplit("by", 1)[1].strip().rstrip("x"))
    assert factor > 3.0


def test_compute_overlap(capsys):
    load_example("compute_overlap").main()
    out = capsys.readouterr().out
    assert "nobody blocks" in out
    assert "forwarded 2 bcast packet(s)" in out


def test_timeline_demo(capsys):
    """The Fig. 2 rendering, byte for byte (``golden/timeline_demo.txt``
    holds ``python examples/timeline_demo.py``'s stdout)."""
    load_example("timeline_demo").main()
    golden = REPO_ROOT / "tests" / "unit" / "golden" / "timeline_demo.txt"
    assert capsys.readouterr().out == golden.read_text()


def test_heterogeneous_cluster(capsys):
    load_example("heterogeneous_cluster").main()
    out = capsys.readouterr().out
    assert "16 x p3-700/pci64b" in out
    assert "'last node' (latency benchmark peer): rank 15" in out


def test_multi_tenant(capsys):
    load_example("multi_tenant").main()
    out = capsys.readouterr().out
    assert "=== placement: spread ===" in out
    assert "=== placement: topology_aware ===" in out
    assert "min-max fairness" in out
    assert "the tax vanishes" in out
    # topology_aware keeps jobs pod-local: every tenant runs solo-speed.
    aware = out.split("=== placement: topology_aware ===", 1)[1]
    assert aware.count("1.000x") == 4


def test_custom_pass(capsys):
    load_example("custom_pass").main()
    out = capsys.readouterr().out
    assert "custom pass 'to_chain' registered and applied" in out
    assert "validates and round-trips losslessly" in out
    assert "shape=chain" in out and "shape=binomial" in out


def test_pap_workload(capsys):
    load_example("pap_workload").main()
    out = capsys.readouterr().out
    assert "round trip is lossless and byte-stable" in out
    assert "sorted-arrival tree vs application-bypass:" in out
    factor = float(out.rsplit("application-bypass:", 1)[1]
                   .split("x", 1)[0].strip())
    assert factor > 1.0


def test_fault_injection(capsys):
    load_example("fault_injection").main()
    out = capsys.readouterr().out
    assert "all results correct" in out
    assert "GM retransmitted" in out
