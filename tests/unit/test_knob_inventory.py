"""The option surface is a golden: every CLI flag of the six parsers and
every environment variable ``src/`` reads, held equal to
``golden/knobs.json``.

A new flag or env var is then a golden diff a reviewer sees (edit the file
by hand — that is the point), and the ROADMAP Ledger quotes its counts.
The simplicity rule this serves: an option is justified when two callers
that are not tests need different values; with one value in use it is a
constant.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

from repro.analysis import cli as simlint_cli
from repro.analysis import races
from repro.experiments import EXPERIMENTS, common
from repro.orchestrate import __main__ as orchestrate_cli
from repro.orchestrate import compare
from repro.schedule import tune

SRC = Path(__file__).resolve().parents[2] / "src"
GOLDEN = Path(__file__).parent / "golden" / "knobs.json"


def _flags(name: str, parser: argparse.ArgumentParser) -> dict:
    """``{command: [flag, ...]}`` for ``parser`` and its subcommands; a
    flag with two spellings is one entry (``-q/--quiet``)."""
    out = {name: []}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub, subparser in action.choices.items():
                out.update(_flags(f"{name} {sub}", subparser))
        elif action.option_strings and action.dest != "help":
            out[name].append("/".join(action.option_strings))
    out[name].sort()
    return out


def cli_flags() -> dict:
    flags = {}
    for name, parser in [
            ("repro.experiments",
             common.make_parser("", default_iterations=1)),
            ("repro.orchestrate", orchestrate_cli.build_parser()),
            ("repro.orchestrate.compare", compare.build_parser()),
            ("repro.analysis", simlint_cli.build_parser()),
            ("repro.analysis.races", races.build_parser()),
            ("repro.schedule.tune", tune.build_parser())]:
        flags.update(_flags(name, parser))
    for name, (run, _, _) in EXPERIMENTS.items():
        extra = getattr(sys.modules[run.__module__], "EXTRA_ARGUMENTS", ())
        if extra:
            flags[f"repro.experiments {name}"] = sorted(f for f, _ in extra)
    return flags


def env_vars() -> list[str]:
    """Every key ``src/`` reads from the environment.  An access this
    walk cannot name (another spelling than ``os.environ.get(K)`` /
    ``os.environ[K]`` / ``os.getenv(K)``, a computed key) fails here."""
    keys = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {target.id: node.value.value
                     for node in tree.body if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Constant)
                     for target in node.targets
                     if isinstance(target, ast.Name)}
        reads = []
        mentions = 0
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and ast.unparse(node) in ("os.environ", "os.getenv")):
                mentions += 1
            if (isinstance(node, ast.Call) and node.args
                    and ast.unparse(node.func) in ("os.environ.get",
                                                   "os.getenv")):
                reads.append(node.args[0])
            elif (isinstance(node, ast.Subscript)
                    and ast.unparse(node.value) == "os.environ"):
                reads.append(node.slice)
        assert mentions == len(reads), f"{path}: unrecognised env access"
        for key in reads:
            value = (key.value if isinstance(key, ast.Constant)
                     else constants.get(getattr(key, "id", None)))
            assert isinstance(value, str), \
                f"{path}:{key.lineno}: env key is not a string constant"
            keys.add(value)
    return sorted(keys)


def test_cli_flags_and_env_vars_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    flags = cli_flags()
    assert flags == golden["flags"]
    assert env_vars() == golden["env"]
    assert golden["counts"] == {
        "flags": sum(len(names) for names in flags.values()),
        "env": len(golden["env"])}
