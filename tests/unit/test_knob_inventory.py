"""The option surface is a golden: every CLI flag of the six parsers,
every environment variable ``src/`` reads and every field of every
``repro.config`` block, held equal to ``golden/knobs.json``.

A new flag, env var or config field is then a golden diff a reviewer sees
(edit the file by hand — that is the point), and the ROADMAP Ledger quotes
its counts.  The simplicity rule this serves: an option is justified when
two callers that are not tests need different values; with one value in use
it is a constant.  A config field nothing reads is not an option at all.

The other inventory held here is ``golden/unreached.json``, the functions
no entry point calls (``tests/census.py`` measures the list; this file only
checks that it is well formed).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from pathlib import Path

import census
from repro import config
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


def config_fields() -> dict:
    """``{block: [field, ...]}`` for every dataclass of ``repro.config``."""
    return {name: [f.name for f in dataclasses.fields(cls)]
            for name, cls in sorted(vars(config).items())
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == config.__name__}


def _reads(tree: ast.AST) -> set:
    """Every name read as ``x.name`` or ``getattr(x, "name")``."""
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    names |= {node.args[1].value for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)}
    return names


def field_readers() -> dict:
    """``{field: [module, ...]}``: where ``src/repro`` reads each config
    field.  ``config.py`` itself counts only through a method that derives
    a value (``MachineSpec.host_scale`` is how ``cpu_mhz`` is consumed) and
    is in turn read elsewhere — ``validate`` alone keeps no field alive."""
    fields = {f for names in config_fields().values() for f in names}
    readers = {f: [] for f in sorted(fields)}
    config_path = Path(config.__file__)
    outside = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        if path != config_path:
            outside[path.relative_to(SRC).as_posix()] = _reads(
                ast.parse(path.read_text(encoding="utf-8")))
    for module, names in outside.items():
        for f in names & fields:
            readers[f].append(module)
    everywhere = set().union(*outside.values())
    for node in ast.walk(ast.parse(config_path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.FunctionDef) and node.name in everywhere
                and node.name != "validate"):
            for f in _reads(node) & fields:
                readers[f].append(f"repro/config.py::{node.name}")
    return readers


def test_cli_flags_and_env_vars_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    flags = cli_flags()
    assert flags == golden["flags"]
    assert env_vars() == golden["env"]
    assert config_fields() == golden["config_fields"]
    assert golden["counts"] == {
        "flags": sum(len(names) for names in flags.values()),
        "env": len(golden["env"]),
        "config_fields": sum(len(names)
                             for names in golden["config_fields"].values())}


def test_every_config_field_is_read_somewhere():
    dead = [f for f, modules in field_readers().items() if not modules]
    assert dead == [], f"config fields nothing reads: {dead}"


def test_unreached_golden_names_real_functions_and_says_why():
    """The cheap half of ``tests/census.py``: no execution, only that each
    entry names a ``def`` that exists and a ``why`` from the closed
    vocabulary, once, in sorted order."""
    golden = census.load_golden()
    entries = json.loads(census.GOLDEN.read_text(encoding="utf-8"))
    assert [e["function"] for e in entries] == sorted(golden)
    defined = census.functions()
    assert [name for name in golden if name not in defined] == []
    assert {name: why for name, why in golden.items()
            if why not in census.WHYS} == {}
