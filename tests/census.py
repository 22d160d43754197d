"""The traffic census: which functions of ``src/repro`` does no entry point
reach?

``python tests/census.py`` runs every non-test entry point of the repository
(``entry_points`` below: the experiment drivers, the examples, every smoke
grid serial and pooled, the race harness, the CLIs, ``experiments all`` and
the host-time benchmark) with a ``sitecustomize`` directory first on
``PYTHONPATH``.  That module installs a ``sys.settrace`` call hook in every
interpreter the run starts — pool workers and subprocess children included —
which appends ``file<TAB>first line`` to one shared file the first time a
function of ``src/repro`` is called (at first sight rather than at exit: a
pool worker leaves through ``os._exit`` and runs no exit handler).  The
script then AST-walks ``src/repro`` for every ``def`` whose (file, first
line) was never called and exits 1 when that set differs from
``tests/unit/golden/unreached.json`` in either direction: a new unreached
function is deleted or justified in the same PR, and a function that became
reached or was removed leaves the file.  The golden is edited by hand: the
run names every entry to add or drop, and a ``why`` is a person's call.

Not collected by pytest (about ten minutes; the ``census`` CI job runs it).
Tier-1 holds only the cheap half, ``tests/unit/test_knob_inventory.py``:
every golden entry names a ``def`` that exists and a ``why`` from ``WHYS``.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
GOLDEN = Path(__file__).parent / "unit" / "golden" / "unreached.json"

#: Why an unreached function stays — a closed vocabulary.
WHYS = {
    "refusal": "typed errors, their constructors and renderers",
    "fault-recovery": "runs only when a fault, timeout or crash is injected",
    "protocol": "rendezvous, pinned memory and the non-blocking MPI calls "
                "ROADMAP 1a's walker needs",
    "abstract": "Protocol / ABC stub; implementations are what runs",
    "repr": "debugging representation",
    "test-instrument": "a tier-1 test observes something else through it",
    "view": "renders a trace for a person (ROADMAP 4b turns it into a view "
            "of the span stream)",
    "registry": "registered under a name a committed pin or a spec default "
                "spells",
    "copy": "copy/pickle hook of a value type; the program copies none",
}

_HOOK = '''\
import os, sys, threading
_root = os.environ["REPRO_CENSUS_ROOT"]
_fd = os.open(os.environ["REPRO_CENSUS_OUT"],
              os.O_WRONLY | os.O_APPEND | os.O_CREAT)
_seen = set()
def _call(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_root):
            os.write(_fd, f"{code.co_filename}\\t{code.co_firstlineno}\\n"
                     .encode())
sys.settrace(_call)
threading.settrace(_call)
'''

#: CI's 4096-rank compile step: lower, validate and round-trip every
#: lowering, dumping each text into the directory ``argv[1]`` ...
_COMPILE_4096 = '''\
import os, sys
from repro.schedule import LOWERINGS, Schedule, lower
from repro.topo.trees import make_tree_shape
os.makedirs(sys.argv[1])
order = list(range(4096))
for shape in ("chain", "binomial"):
    for name in sorted(LOWERINGS):
        options = {"order": order} if ".pap_" in name else {"nseg": 8}
        s = lower(name, make_tree_shape(shape), 4096, **options).validate()
        text = s.to_json()
        assert Schedule.from_json(text) == s
        path = os.path.join(sys.argv[1], f"{name} {shape}.json")
        with open(path, "w") as fh:
            fh.write(text)
'''

#: ... and its cold decode of those texts in an interpreter that has built
#: no step.
_COLD_DECODE_4096 = '''\
import glob, os, sys
from repro.schedule import Schedule
for path in sorted(glob.glob(os.path.join(sys.argv[1], "*.json"))):
    with open(path) as fh:
        Schedule.from_json(fh.read())
'''

_RUN_POINT = json.dumps({
    "experiment": "census", "kind": "cpu_util", "build": "ab", "elements": 4,
    "config": {"factory": "paper", "size": 4, "seed": 1}, "iterations": 2})


def entry_points(out: Path) -> list[list[str]]:
    """Every command a user, an example, CI or the benchmark runs; ``out``
    takes what they write."""
    py = [sys.executable]
    orchestrate = py + ["-m", "repro.orchestrate"]
    baseline = str(ROOT / "benchmarks" / "baselines"
                   / "BENCH_smoke.baseline.json")
    commands = [
        py + ["-m", "repro"],
        py + ["-m", "repro.experiments", "all", "--iterations", "5",
              "--quick"],
        py + ["-m", "repro.experiments", "fig10", "--iterations", "5",
              "--quick", "--jobs", "2",
              "--bench-json", str(out / "BENCH_fig10.json")],
    ]
    commands += [py + [str(path)]
                 for path in sorted((ROOT / "examples").glob("*.py"))]
    for grid in ("fig7", "topo", "faults", "pipeline", "schedule", "tenancy",
                 "pap"):
        commands += [
            orchestrate + ["smoke", grid, "--jobs", "1", "--out",
                           str(out / "serial")],
            orchestrate + ["smoke", grid, "--jobs", "2", "--out", str(out)]]
    commands += [
        orchestrate + ["smoke", "tenancy", "--jobs", "2", "--cache",
                       str(out / "result-cache"), "--out", str(out / temp)]
        for temp in ("cold", "warm")]
    commands += [
        orchestrate + ["smoke", "scale", "--sizes", "64", "--out", str(out)],
        py + ["-m", "repro.analysis.races", "--scenario", "fig7", "--runs",
              "2", "--quiet"],
        py + ["-m", "repro.schedule.tune", "--nranks", "4", "--iterations",
              "2", "--out", str(out / "tuned.json")],
        py + ["-m", "repro.analysis", "src", "--format", "json", "--out",
              str(out / "simlint.json")],
        py + ["-m", "repro.analysis", "--list-rules"],
        py + ["-m", "repro.orchestrate.compare", baseline,
              str(out / "BENCH_smoke.json")],
        orchestrate + ["summarize", str(out / "BENCH_smoke.json")],
        orchestrate + ["run-point", _RUN_POINT],
        orchestrate + ["refresh-baseline", "fig7", "--dir", str(out)],
        py + ["-c", _COMPILE_4096, str(out / "schedules")],
        py + ["-c", _COLD_DECODE_4096, str(out / "schedules")],
        ["env", "REPRO_JOBS=2", *py, "-m", "repro.experiments", "all"],
        py + ["perf/run.py", "--quick"],
        py + ["perf/run.py", "--quick", "--traced"],
    ]
    return commands


def functions() -> dict[str, list[tuple[str, int, int]]]:
    """``{"pkg/mod.py::Class.method": [(file, first line, lines), ...]}`` for
    every ``def`` under ``src/repro``; the first line is the one a code
    object reports (its first decorator's).  A name defined twice (a
    property and its setter) lists both."""
    found: dict[str, list[tuple[str, int, int]]] = {}

    def walk(node: ast.AST, path: Path, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = f"{path.relative_to(PACKAGE).as_posix()}::{inner}"
                found.setdefault(name, []).append(
                    (str(path), first, child.end_lineno - first + 1))
            walk(child, path, inner)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def load_golden() -> dict[str, str]:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {entry["function"]: entry["why"] for entry in entries}


def measure() -> set[tuple[str, int]]:
    """Run the entry points under the call hook; the (file, first line)
    pairs that were called.  A failing entry point fails the census."""
    work = Path(tempfile.mkdtemp(prefix="repro-census-"))
    try:
        (work / "site").mkdir()
        (work / "site" / "sitecustomize.py").write_text(_HOOK)
        calls = work / "calls.tsv"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [str(work / "site"), str(ROOT / "src")]),
                   REPRO_CENSUS_ROOT=str(PACKAGE) + os.sep,
                   REPRO_CENSUS_OUT=str(calls))
        for command in entry_points(work / "out"):
            shown = " ".join(arg if len(arg) < 60 else arg[:57] + "..."
                             for arg in command[1:])
            print(f"census: {shown}", flush=True)
            done = subprocess.run(command, cwd=ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"census: entry point exited {done.returncode}: "
                         f"{shown}")
        return {(file, int(line)) for file, _, line in
                (row.partition("\t")
                 for row in calls.read_text().splitlines())}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    called = measure()
    defined = functions()
    unreached = {name: sum(lines for _, _, lines in sites)
                 for name, sites in defined.items()
                 if any((file, first) not in called
                        for file, first, _ in sites)}
    print(f"census: {len(unreached)} of "
          f"{sum(len(s) for s in defined.values())} functions in src/repro "
          f"({sum(unreached.values())} lines) never execute")
    golden = load_golden()
    for name in sorted(unreached.keys() - golden.keys()):
        print(f"unreached, not in the golden (delete it, or add it with a "
              f"why): {name}")
    for name in sorted(golden.keys() - unreached.keys()):
        print(f"in the golden, but "
              f"{'reached' if name in defined else 'gone'} (drop the "
              f"entry): {name}")
    return int(unreached.keys() != golden.keys())


if __name__ == "__main__":
    raise SystemExit(main())
