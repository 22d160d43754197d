"""simlint — an AST linter for the hazards this codebase actually has.

The simulation's correctness rests on conventions ``pytest`` cannot see:

* every generator-process operation must be driven with ``yield from`` —
  a dropped ``yield from mpi.barrier()`` silently creates a generator
  object, discards it, and the rank simply *skips* the barrier;
* all time and randomness must flow through the virtual clock
  (``Simulator.now``) and the named streams of
  :class:`~repro.sim.random.RngStreams` — one stray ``time.time()`` makes
  runs non-reproducible;
* CPU costs tallied on a :class:`~repro.sim.process.Ledger` must eventually
  be yielded (a ledger is its own Busy segment) or handed to a consumer, or
  the simulated work becomes free;
* nothing may depend on the *order* of same-time events or of unordered
  containers — that is a schedule race, the dynamic side of which is
  checked by :mod:`repro.analysis.races`.

Rules have stable IDs; ``python -m repro.analysis --list-rules`` prints
the registry, and ``# simlint: ignore[SIM001]`` suppresses one per line.

Architecture: each rule is a class registered in
:mod:`repro.analysis.rules` with a :class:`~repro.analysis.rules.RuleSpec`
(summary, sim-scope-only flag).  This module owns the *driver*: file
discovery, the cross-file generator-name pass, the shared per-file AST
walk that dispatches nodes to subscribed rules, suppression pragmas, and
dedup/sort of findings.  There is no per-run policy: every registered
rule runs, every finding gates, and the pragma is the one way to accept
a finding.

Detection of dropped SimGens is *two-pass*: pass 1 collects every function
or method defined in the linted file set and records whether it is a
generator; a name is treated as generator-process API only when **all**
definitions of that name are generators (ambiguous names such as ``wait`` —
a generator on ``ProgressEngine`` but a plain method on ``Notifier`` — fall
back to the receiver-hint table in :mod:`repro.analysis.rules`).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Optional

from .findings import Finding, normalize_path
from .rules import (REGISTRY, RECEIVER_GEN_CALLS, Rule, callee_name,
                    is_generator_def, is_set_expr, rule_table)

#: Rule-ID -> summary table (backwards-compatible face of the registry).
RULES: dict[str, str] = rule_table()

#: repro sub-packages in which the determinism rules (SIM002/008/010/011)
#: apply.  Everything that executes *inside* the simulated world is
#: here; report/bench/experiments drivers run outside it and may
#: legitimately look at the host clock.
SIM_SCOPED_PACKAGES = frozenset({
    "sim", "mpich", "gm", "network", "core", "cluster", "apps", "runtime",
    "topo", "faults",
})

#: Type annotations that mark a name as set-typed for SIM010/SIM011.
_SET_ANNOTATIONS = frozenset({"set", "frozenset", "Set", "FrozenSet",
                              "AbstractSet", "MutableSet"})

_IGNORE_PRAGMA = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?")


def collect_generator_names(trees: Iterable[ast.AST]) -> frozenset[str]:
    """Names for which *every* definition in the file set is a generator."""
    kinds: dict[str, set[bool]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                kinds.setdefault(node.name, set()).add(
                    is_generator_def(node))
    return frozenset(name for name, seen in kinds.items()
                     if seen == {True})


class LintContext:
    """Everything a rule may ask about the file under analysis: location,
    shared dataflow facts, traversal state, and the ``emit`` sink."""

    def __init__(self, norm_path: str, source: str, tree: ast.AST,
                 gen_names: frozenset[str]):
        self.path = norm_path
        self.lines = source.splitlines()
        self.gen_names = gen_names
        self.findings: list[Finding] = []
        # traversal state, maintained by _Walker
        self.imports: dict[str, str] = {}       # alias -> module path
        self.from_imports: dict[str, str] = {}  # name -> fully dotted
        self.loop_targets: list[set[str]] = []
        #: For each enclosing loop over an unordered container, the
        #: human-readable reason string (innermost last).
        self.unordered_loop_stack: list[str] = []
        # per-file dataflow pre-pass (shared by SIM010/011)
        self._set_names: set[str] = set()
        self._set_attrs: set[str] = set()
        self._prescan(tree)

    # -- pre-pass ------------------------------------------------------
    def _prescan(self, tree: ast.AST) -> None:
        """Collect set-typed names."""
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if is_set_expr(node.value):
                    for target in node.targets:
                        self._mark_set_target(target)
            elif isinstance(node, ast.AnnAssign):
                if ((node.value is not None and is_set_expr(node.value))
                        or self._is_set_annotation(node.annotation)):
                    self._mark_set_target(node.target)

    def _mark_set_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self._set_names.add(target.id)
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self._set_attrs.add(target.attr)

    @staticmethod
    def _is_set_annotation(ann: Optional[ast.AST]) -> bool:
        if isinstance(ann, ast.Subscript):
            ann = ann.value
        if isinstance(ann, ast.Name):
            return ann.id in _SET_ANNOTATIONS
        if isinstance(ann, ast.Attribute):
            return ann.attr in _SET_ANNOTATIONS
        return False

    # -- shared helpers ------------------------------------------------
    def emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        text = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        self.findings.append(Finding(
            rule=rule_id, path=self.path, line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message, line_text=text))

    def dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve a call target to a dotted module path via imports."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.imports:
            parts.append(self.imports[base])
        elif base in self.from_imports:
            parts.append(self.from_imports[base])
        else:
            parts.append(base)
        return ".".join(reversed(parts))

    def gen_call_name(self, call: ast.Call) -> Optional[str]:
        """Human-readable name if ``call`` targets a generator process."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.gen_names:
                return func.id
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in self.gen_names:
                return func.attr
            receiver = func.value
            hint = None
            if isinstance(receiver, ast.Name):
                hint = receiver.id
            elif isinstance(receiver, ast.Attribute):
                hint = receiver.attr
            if hint is not None and (hint, func.attr) in RECEIVER_GEN_CALLS:
                return f"{hint}.{func.attr}"
        return None

    def unordered_reason(self, it: ast.AST) -> Optional[str]:
        """Why iterating ``it`` has unspecified order, or None if it is
        fine (ordered, or defensively wrapped in ``sorted``)."""
        if isinstance(it, ast.Call):
            name = callee_name(it.func)
            if name in ("sorted", "list", "tuple", "enumerate", "reversed",
                        "range", "zip"):
                return None
        if is_set_expr(it):
            return "a set expression"
        if isinstance(it, ast.Name) and it.id in self._set_names:
            return f"set `{it.id}`"
        if (isinstance(it, ast.Attribute)
                and isinstance(it.value, ast.Name)
                and it.value.id == "self"
                and it.attr in self._set_attrs):
            return f"set `self.{it.attr}`"
        return None


class _Walker(ast.NodeVisitor):
    """The single shared AST walk: maintains traversal context and
    dispatches every node to the rules subscribed to its type."""

    def __init__(self, ctx: LintContext, rules: list[Rule]):
        self.ctx = ctx
        self._dispatch: dict[type, list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    def _check(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            rule.check(self.ctx, node)

    def visit(self, node: ast.AST) -> None:
        ctx = self.ctx
        if isinstance(node, ast.Import):
            for alias in node.names:
                ctx.imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
            self._check(node)
            self.generic_visit(node)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                for alias in node.names:
                    ctx.from_imports[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            self._check(node)
            self.generic_visit(node)
        elif isinstance(node, ast.For):
            self._check(node)
            targets = {n.id for n in ast.walk(node.target)
                       if isinstance(n, ast.Name)}
            reason = ctx.unordered_reason(node.iter)
            ctx.loop_targets.append(targets)
            if reason is not None:
                ctx.unordered_loop_stack.append(reason)
            self.generic_visit(node)
            if reason is not None:
                ctx.unordered_loop_stack.pop()
            ctx.loop_targets.pop()
        elif isinstance(node, ast.FunctionDef):
            # Checked in the *enclosing* loop context (SIM006), then the
            # body gets a fresh one.
            self._check(node)
            saved_loops, ctx.loop_targets = ctx.loop_targets, []
            saved_unordered, ctx.unordered_loop_stack = \
                ctx.unordered_loop_stack, []
            self.generic_visit(node)
            ctx.unordered_loop_stack = saved_unordered
            ctx.loop_targets = saved_loops
        else:
            self._check(node)
            self.generic_visit(node)


# ----------------------------------------------------------------------
# suppression pragmas
# ----------------------------------------------------------------------
def _suppressed_rules(line_text: str) -> Optional[frozenset[str]]:
    """Rules ignored on this line; empty frozenset means *all* rules."""
    match = _IGNORE_PRAGMA.search(line_text)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip() for r in rules.split(",") if r.strip())


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------
def discover(paths: Iterable[Path | str]) -> list[Path]:
    """The ``*.py`` files under ``paths``, each once, in a fixed order."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    seen: set[Path] = set()
    unique = []
    for f in files:
        resolved = f.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(f)
    return unique


def _sim_scoped(norm_path: str) -> bool:
    parts = norm_path.split("/")
    return (len(parts) >= 3 and parts[0] == "repro"
            and parts[1] in SIM_SCOPED_PACKAGES)


def lint_paths(paths: Iterable[Path | str]) -> list[Finding]:
    """Lint every file under ``paths`` with every registered rule (two
    passes: the generator-name set spans the whole file set)."""
    sources: dict[Path, str] = {}
    trees: dict[Path, ast.AST] = {}
    findings: list[Finding] = []
    for file in discover(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except OSError as exc:
            findings.append(Finding(
                "SIM000", normalize_path(file), 1, 1,
                f"cannot read file: {exc}"))
            continue
        sources[file] = source
        try:
            trees[file] = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            findings.append(Finding(
                "SIM000", normalize_path(file), exc.lineno or 1,
                (exc.offset or 0) + 1, f"syntax error: {exc.msg}"))

    gen_names = collect_generator_names(trees.values())

    for file, tree in trees.items():
        norm = normalize_path(file)
        ctx = LintContext(norm, sources[file], tree, gen_names)
        sim_scoped = _sim_scoped(norm)
        rules = [cls() for cls in REGISTRY.values()
                 if sim_scoped or not cls.spec.sim_scope_only]
        for rule in rules:
            rule.begin_file(ctx, tree)
        _Walker(ctx, rules).visit(tree)
        for finding in ctx.findings:
            ignored = _suppressed_rules(finding.line_text)
            if ignored is not None and (not ignored
                                        or finding.rule in ignored):
                continue
            findings.append(finding)
    unique = {(f.path, f.line, f.col, f.rule, f.message): f
              for f in findings}
    return sorted(unique.values(),
                  key=lambda f: (f.path, f.line, f.col, f.rule))
