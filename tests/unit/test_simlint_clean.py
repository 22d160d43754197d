"""The CI gate: ``src/`` must lint clean against the committed baseline.

This is the enforcement point the analysis subsystem exists for — it runs
as part of the tier-1 suite, so a dropped ``yield from`` or a stray
``time.time()`` anywhere in the package fails every PR.  The seeded-bug
tests prove the gate would actually catch the two hazard classes the
paper's protocol is most sensitive to.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "analysis-baseline.json"


def test_src_lints_clean_against_committed_baseline(capsys):
    rc = main(["--baseline", str(BASELINE), str(SRC)])
    out = capsys.readouterr().out
    assert rc == 0, f"simlint found new debt in src/:\n{out}"


def _copy_src(tmp_path: Path) -> Path:
    target = tmp_path / "src"
    shutil.copytree(SRC, target)
    return target


def test_seeded_dropped_yield_from_fails_gate(tmp_path, capsys):
    src = _copy_src(tmp_path)
    rank = src / "repro" / "mpich" / "rank.py"
    text = rank.read_text(encoding="utf-8")
    # Drop the `yield from` off a collective call inside MpiRank.reduce.
    anchor = "result = yield from reduce_nab(self, sendbuf"
    assert anchor in text
    rank.write_text(text.replace(
        anchor,
        "reduce_nab(self, sendbuf, op, root, comm, recvbuf)\n"
        "            " + anchor,
        1), encoding="utf-8")
    rc = main(["--baseline", str(BASELINE), str(src)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SIM001" in out and "reduce_nab" in out


def test_seeded_wall_clock_fails_gate(tmp_path, capsys):
    src = _copy_src(tmp_path)
    simulator = src / "repro" / "sim" / "simulator.py"
    text = simulator.read_text(encoding="utf-8")
    assert "self.events_processed += processed" in text
    simulator.write_text(text.replace(
        "self.events_processed += processed",
        "import time\n"
        "        self._wall = time.time()\n"
        "        self.events_processed += processed",
        1), encoding="utf-8")
    rc = main(["--baseline", str(BASELINE), str(src)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SIM002" in out and "time.time" in out
