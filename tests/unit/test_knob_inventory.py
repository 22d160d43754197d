"""The option surface is a golden: every CLI flag of the six parsers,
every environment variable ``src/`` reads and every field of every
``repro.config`` block, held equal to ``golden/knobs.json``.

A new flag, env var or config field is then a golden diff a reviewer sees
(edit the file by hand — that is the point), and the ROADMAP Ledger quotes
its counts.  The simplicity rule this serves: an option is justified when
two callers that are not tests need different values; with one value in use
it is a constant.  A config field nothing reads is not an option at all.

Two more inventories are held here.  ``golden/unreached.json``: the
functions no entry point calls (``tests/census.py`` measures the list; this
file only checks that it is well formed).  ``golden/unread.json``: the state
``src/repro`` writes and nothing reads — an attribute, ``__slots__`` name or
dataclass field that no code under ``src/``, ``tests/``, ``perf/``,
``benchmarks/`` or ``examples/`` loads is deleted with the statements that
update it, or stays there with a ``why`` from ``UNREAD_WHYS``.

``PYTHONPATH=src:tests python tests/unit/test_knob_inventory.py`` rewrites
the one generated golden, ``golden/config_readers.json``: for every
``repro.config`` field, the modules that read it (DESIGN.md §6 points at
it).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
from pathlib import Path

import census
from repro import config
from repro.analysis import cli as simlint_cli
from repro.analysis import races
from repro.experiments import common
from repro.orchestrate import __main__ as orchestrate_cli
from repro.orchestrate import compare
from repro.schedule import tune

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
GOLDEN = Path(__file__).parent / "golden" / "knobs.json"
UNREAD = Path(__file__).parent / "golden" / "unread.json"
READERS = Path(__file__).parent / "golden" / "config_readers.json"

#: Why state nothing reads stays — a closed vocabulary.
UNREAD_WHYS = {
    "exported": "reaches BENCH json or a written record through a generic "
                "walk over the declaring class (``_fold``, ``encode``, "
                "``getattr`` over a tuple of names)",
    "refusal": "only an error message reads it",
    "pinned": "``perf/`` (which no PR may edit) passes it positionally",
}


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
             common.make_parser()),
            ("repro.orchestrate", orchestrate_cli.build_parser()),
            ("repro.orchestrate.compare", compare.build_parser()),
            ("repro.analysis", simlint_cli.build_parser()),
            ("repro.analysis.races", races.build_parser()),
            ("repro.schedule.tune", tune.build_parser())]:
        flags.update(_flags(name, parser))
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
    """Every name read as ``x.name`` or ``getattr(x, "name")``, or listed in
    a ``BENCH_METRICS`` tuple (``BenchResult.metrics`` reads those by name).
    A load inside a statement whose only targets store the same attribute
    (``self.n = max(self.n, k)``) is an update, not a read."""
    updates = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if all(isinstance(t, ast.Attribute) for t in targets):
                stored = {t.attr for t in targets}
                updates |= {id(sub) for sub in ast.walk(node.value)
                            if isinstance(sub, ast.Attribute)
                            and sub.attr in stored}
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load) and id(node) not in updates}
    names |= {node.args[1].value for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)}
    names |= {c.value for node in ast.walk(tree)
              if isinstance(node, ast.Assign)
              and ast.unparse(node.targets[0]) == "BENCH_METRICS"
              for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


def _writes(tree: ast.AST) -> set:
    """Every name written as state: an ``x.name = ...`` / ``x.name += ...``
    target, a ``__slots__`` entry, an annotated class-level field."""
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Store)}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                names.add(stmt.target.id)
            elif (isinstance(stmt, ast.Assign)
                    and ast.unparse(stmt.targets[0]) == "__slots__"):
                names |= {c.value for c in ast.walk(stmt.value)
                          if isinstance(c, ast.Constant)}
    return names


def _trees(*roots: Path):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def unread_state() -> dict:
    """``{name: [module, ...]}``: what ``src/repro`` writes (and where) that
    nothing in the repository reads."""
    written: dict = {}
    for path, tree in _trees(SRC / "repro"):
        for name in _writes(tree):
            written.setdefault(name, []).append(
                path.relative_to(SRC / "repro").as_posix())
    read = set().union(*(_reads(tree) for _, tree in _trees(
        SRC, *(REPO / d for d in ("tests", "perf", "benchmarks",
                                  "examples")))))
    return {name: where for name, where in sorted(written.items())
            if name not in read}


def field_readers() -> dict:
    """``{field: [module, ...]}``: where ``src/repro`` reads each config
    field.  ``config.py`` itself counts only through a method that derives
    a value (``MachineSpec.host_scale`` is how ``cpu_mhz`` is consumed) and
    is in turn read elsewhere — ``validate`` alone keeps no field alive."""
    fields = {f for names in config_fields().values() for f in names}
    readers = {f: [] for f in sorted(fields)}
    config_path = Path(config.__file__)
    outside = {path.relative_to(SRC).as_posix(): _reads(tree)
               for path, tree in _trees(SRC / "repro") if path != config_path}
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


def reader_table() -> dict:
    """``{"Block.field": [module, ...]}`` for all config fields (readers
    are matched by field name, so two blocks' ``eager_limit_bytes`` share
    theirs)."""
    readers = field_readers()
    return {f"{block}.{name}": sorted(readers[name])
            for block, names in config_fields().items() for name in names}


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


def test_config_reader_table_is_current():
    table = json.loads(READERS.read_text(encoding="utf-8"))
    assert len(table) == sum(map(len, config_fields().values()))
    assert table == reader_table(), \
        "regenerate: PYTHONPATH=src:tests python " + __file__


def test_state_nothing_reads_is_the_golden():
    """A new attribute, slot or dataclass field nothing loads fails here:
    delete it with its updates, or add it to ``unread.json`` by hand."""
    golden = json.loads(UNREAD.read_text(encoding="utf-8"))
    assert {e["name"]: e["where"] for e in golden} == unread_state()
    assert [e["name"] for e in golden] == sorted(e["name"] for e in golden)
    assert {e["name"]: e["why"] for e in golden
            if e["why"] not in UNREAD_WHYS} == {}
    assert len(golden) <= 20


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


if __name__ == "__main__":
    READERS.write_text(json.dumps(reader_table(), indent=1) + "\n",
                       encoding="utf-8")
    print(f"wrote {READERS}")
