"""Exit codes, JSON schema and the option surface of the analysis CLI."""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main)

CLEAN_SOURCE = """
    def driver():
        yield from helper()

    def helper():
        yield 1
"""

DIRTY_SOURCE = """
    import time

    def helper():
        yield 1

    def driver():
        helper()
        t = time.time()
        yield t
"""


def write_module(tmp_path: Path, source: str,
                 relpath: str = "repro/sim/mod.py") -> Path:
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(textwrap.dedent(source), encoding="utf-8")
    return file


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------
def test_exit_clean(tmp_path, capsys):
    write_module(tmp_path, CLEAN_SOURCE)
    assert main([str(tmp_path)]) == EXIT_CLEAN
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_findings(tmp_path, capsys):
    write_module(tmp_path, DIRTY_SOURCE)
    assert main([str(tmp_path)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM002" in out


def test_exit_usage_on_missing_path(tmp_path, capsys):
    assert main([str(tmp_path / "nope")]) == EXIT_USAGE
    assert "do not exist" in capsys.readouterr().err


def test_exit_usage_on_no_paths(capsys):
    assert main([]) == EXIT_USAGE
    assert "no paths" in capsys.readouterr().err


def test_exit_usage_on_bad_flag(capsys):
    assert main(["--format", "yaml", "x.py"]) == EXIT_USAGE


@pytest.mark.parametrize("flag", [
    ["--baseline", "b.json"], ["--write-baseline"], ["--select", "SIM002"],
    ["--disable", "SIM002"], ["--severity", "SIM012=error"],
    ["--fail-on-warnings"], ["--sim-scope", "sim"]],
    ids=lambda flag: flag[0])
def test_removed_flag_is_a_usage_error(flag, tmp_path, capsys):
    """simlint has no per-run policy: every rule runs, every finding
    gates, suppressed only by the inline pragma."""
    write_module(tmp_path, CLEAN_SOURCE)
    assert main(flag + [str(tmp_path)]) == EXIT_USAGE
    assert "unrecognized arguments: " + flag[0] in capsys.readouterr().err


def test_help_lists_exactly_the_three_options(capsys):
    assert main(["--help"]) == EXIT_CLEAN
    options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {"--help", "--format", "--out", "--list-rules"}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for rule in ("SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006"):
        assert rule in out


# ----------------------------------------------------------------------
# JSON output schema
# ----------------------------------------------------------------------
def test_json_output_schema(tmp_path, capsys):
    write_module(tmp_path, DIRTY_SOURCE)
    assert main(["--format", "json", str(tmp_path)]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert set(payload) == {"version", "findings", "counts", "errors"}
    assert payload["counts"]["SIM001"] == 1
    assert payload["counts"]["SIM002"] == 1
    assert payload["errors"] >= 2
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["path"].startswith("repro/")
        assert finding["line"] > 0 and finding["col"] > 0


def test_json_output_clean(tmp_path, capsys):
    write_module(tmp_path, CLEAN_SOURCE)
    assert main(["--format", "json", str(tmp_path)]) == EXIT_CLEAN
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == [] and payload["counts"] == {}

