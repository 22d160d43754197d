"""The CI gate: ``src/`` must lint clean.

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


def test_src_lints_clean(capsys):
    rc = main([str(SRC)])
    out = capsys.readouterr().out
    assert rc == 0, f"simlint found debt in src/:\n{out}"


def _copy_src(tmp_path: Path) -> Path:
    target = tmp_path / "src"
    shutil.copytree(SRC, target)
    return target


def test_seeded_dropped_yield_from_fails_gate(tmp_path, capsys):
    src = _copy_src(tmp_path)
    engine = src / "repro" / "core" / "engine.py"
    text = engine.read_text(encoding="utf-8")
    # Lose the `from` off the AB engine's fallback to the default reduce:
    # the driver would be handed a raw generator and skip the collective.
    anchor = "yield from reduce_nab("
    assert anchor in text
    engine.write_text(text.replace(anchor, "yield reduce_nab(", 1),
                      encoding="utf-8")
    rc = main([str(src)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SIM001" in out and "reduce_nab" in out


def _prepend_to_body(text: str, def_line: str, statement: str) -> str:
    """Insert ``statement`` as the first body line of the function whose
    ``def`` line is ``def_line``, at that body's own indentation."""
    head, sep, body = text.partition(def_line + "\n")
    assert sep, f"{def_line!r} not found"
    indent = body[:len(body) - len(body.lstrip(" "))]
    return head + sep + indent + statement + "\n" + body


def test_seeded_wall_clock_fails_gate(tmp_path, capsys):
    src = _copy_src(tmp_path)
    simulator = src / "repro" / "sim" / "simulator.py"
    text = simulator.read_text(encoding="utf-8")
    simulator.write_text(_prepend_to_body(
        text, "    def live_process_count(self) -> int:",
        "import time; self._wall = time.time()"), encoding="utf-8")
    rc = main([str(src)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "SIM002" in out and "time.time" in out
