"""The simlint rule registry.

Each lint rule is a small class registered under a stable ID with a
:class:`RuleSpec` (summary, whether it only applies in simulation-scoped
packages).  The driver (:mod:`repro.analysis.simlint`)
does **one** shared AST walk per file and dispatches each node to the
rules subscribed to its type, so adding a rule never adds a pass.

Every registered rule runs and every finding gates CI; a finding that is
meant to stay is suppressed where it is, with ``# simlint: ignore[SIMnnn]``.

Rules see a ``ctx`` object (``LintContext`` in the driver) exposing the
shared per-file analyses: import alias resolution (``ctx.dotted``), the
cross-file generator-name set (``ctx.gen_call_name``), set-typed value
inference (``ctx.unordered_reason``), the enclosing loop stacks, and
``ctx.emit(rule_id, node, message)``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Any, ClassVar, Optional

@dataclass(frozen=True)
class RuleSpec:
    """Identity and policy of one rule."""

    id: str
    summary: str
    #: Rule only fires in files under ``simlint.SIM_SCOPED_PACKAGES``.
    sim_scope_only: bool = False


class Rule:
    """Base class: subclass, set ``spec`` and ``node_types``, implement
    :meth:`check`.  One instance is created per linted file, so instances
    may keep per-file state (seeded in :meth:`begin_file`)."""

    spec: ClassVar[RuleSpec]
    #: AST node classes this rule wants dispatched to :meth:`check`.
    node_types: ClassVar[tuple[type, ...]] = ()

    def begin_file(self, ctx: Any, tree: ast.AST) -> None:
        """Optional per-file pre-pass (runs before the shared walk)."""

    def check(self, ctx: Any, node: ast.AST) -> None:
        raise NotImplementedError


#: All registered rules by ID (import order == registration order; the
#: driver instantiates every one per file).
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    if cls.spec.id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.spec.id}")
    REGISTRY[cls.spec.id] = cls
    return cls


def rule_table() -> dict[str, str]:
    """``{rule_id: summary}`` for every registered rule plus SIM000 (the
    driver-emitted parse failure, which has no Rule class)."""
    table = {"SIM000": "syntax error (file does not parse)"}
    table.update({rid: cls.spec.summary for rid, cls in REGISTRY.items()})
    return table


# ---------------------------------------------------------------------------
# shared tables and helpers
# ---------------------------------------------------------------------------

#: SIM008: stdlib modules whose *import* already signals nondeterminism in
#: simulation-scoped code (calls through them are caught by SIM002; the
#: import-level rule catches aliasing tricks and dead imports alike).
SIM008_MODULES = frozenset({"random", "time"})


@dataclass(frozen=True)
class Boundary:
    """One layering boundary: calls named ``names`` are the business of
    the files under ``allowed`` only.  (Paths are normalized to start at
    the last ``repro`` component; test files reduce to their basename —
    hence the ``test_``/``conftest`` entries.)"""

    names: frozenset[str]
    allowed: tuple[str, ...]
    #: Finding text; ``{name}`` is the flagged callee.
    message: str
    #: Module-path parts that mark the repro primitive: a same-named
    #: callable imported from a module whose dotted path has none of them
    #: is somebody else's class and is not flagged.  Empty = any callee.
    module_hints: tuple[str, ...] = ()
    #: Only method-style calls (``x.name(...)``); a non-empty string also
    #: pins the receiver's terminal name (``rx_notifier.wait()``).
    method_of: Optional[str] = None


#: Fully-qualified callables that read the host wall clock or ambient
#: process state.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns", "time.process_time",
    "time.process_time_ns", "time.clock",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
})

#: Any call resolving under these prefixes is ambient randomness.
NONDET_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: Receiver-hint fallback for generator-method names that are ambiguous
#: across the codebase: (last attribute of the receiver, method name).
RECEIVER_GEN_CALLS = frozenset({
    ("mpi", "send"), ("mpi", "wait"), ("mpi", "test"),
    ("rank", "send"), ("rank", "wait"),
    ("progress", "wait"), ("progress", "wait_all"),
    ("split", "wait"),
})

#: Attribute/variable names that denote simulation timestamps (SIM003).
TIME_NAME = re.compile(r"^(now|deadline)$|(_at|_time)$")

#: Methods that schedule a simulation event (SIM011):
#: ``Simulator.schedule/at`` and ``EventQueue.push``.
SCHEDULE_METHODS = frozenset({"schedule", "at", "push"})


def is_generator_def(fn: ast.AST) -> bool:
    """True if ``fn`` (FunctionDef) contains a yield at its own scope."""
    todo = list(getattr(fn, "body", []))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def callee_name(func: ast.AST) -> Optional[str]:
    """The terminal name of a call target (``Name`` or last ``Attribute``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def is_set_expr(node: ast.AST) -> bool:
    """Syntactically set-typed: set literal/comprehension or a bare
    ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = callee_name(node.func)
        return name in ("set", "frozenset") and not isinstance(
            node.func, ast.Attribute)
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # set algebra propagates set-ness from either operand
        return is_set_expr(node.left) or is_set_expr(node.right)
    return False


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------

@register
class DroppedSimGen(Rule):
    """A generator-process call whose generator object is discarded (or
    yielded raw) silently skips the simulated operation."""

    spec = RuleSpec(
        "SIM001",
        "generator-process call without `yield from` (dropped SimGen)")
    node_types = (ast.Expr, ast.Yield)

    def check(self, ctx: Any, node: ast.AST) -> None:
        value = node.value
        if not isinstance(value, ast.Call):
            return
        name = ctx.gen_call_name(value)
        if name is None:
            return
        if isinstance(node, ast.Expr):
            ctx.emit("SIM001", node,
                     f"result of generator process `{name}(...)` is "
                     f"discarded — drive it with `yield from`")
        else:
            ctx.emit("SIM001", node,
                     f"`yield {name}(...)` hands the driver a raw "
                     f"generator — use `yield from`")


@register
class WallClock(Rule):
    spec = RuleSpec(
        "SIM002",
        "wall-clock/ambient randomness in simulation-critical code",
        sim_scope_only=True)
    node_types = (ast.Call,)

    def check(self, ctx: Any, node: ast.Call) -> None:
        dotted = ctx.dotted(node.func)
        if dotted is None:
            return
        if dotted in WALL_CLOCK_CALLS:
            ctx.emit("SIM002", node,
                     f"`{dotted}()` reads the host clock — simulation "
                     f"code must use `Simulator.now`")
        elif dotted.startswith(NONDET_PREFIXES):
            ctx.emit("SIM002", node,
                     f"`{dotted}()` is ambient randomness — use a named "
                     f"`RngStreams` stream")


@register
class TimestampEquality(Rule):
    spec = RuleSpec(
        "SIM003", "float equality comparison on simulation timestamps")
    node_types = (ast.Compare,)

    @staticmethod
    def _is_time_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return bool(TIME_NAME.search(node.attr))
        if isinstance(node, ast.Name):
            return bool(TIME_NAME.search(node.id))
        return False

    def check(self, ctx: Any, node: ast.Compare) -> None:
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                sides = (left, right)
                if any(self._is_time_expr(s) for s in sides) and not any(
                        isinstance(s, ast.Constant) and s.value is None
                        for s in sides):
                    ctx.emit("SIM003", node,
                             "float equality on a simulation timestamp — "
                             "compare with an ordering or a tolerance")
            left = right


@register
class UnconsumedLedger(Rule):
    spec = RuleSpec("SIM004", "Ledger charged but never consumed")
    node_types = (ast.FunctionDef,)

    def check(self, ctx: Any, fn: ast.FunctionDef) -> None:
        if not is_generator_def(fn):
            return
        assigns: dict[str, ast.AST] = {}
        charge_receivers: set[int] = set()
        charged: set[str] = set()
        nodes = [n for n in ast.walk(fn)]
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if (isinstance(target, ast.Name)
                        and isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "Ledger"):
                    assigns[target.id] = node
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "charge"
                    and isinstance(node.func.value, ast.Name)):
                charged.add(node.func.value.id)
                charge_receivers.add(id(node.func.value))
        if not assigns:
            return
        consumed: set[str] = set()
        for node in nodes:
            if (isinstance(node, ast.Name) and node.id in assigns
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in charge_receivers):
                consumed.add(node.id)
        for name, site in assigns.items():
            if name in charged and name not in consumed:
                ctx.emit("SIM004", site,
                         f"Ledger `{name}` accumulates charges that are "
                         f"never consumed — the simulated CPU time is "
                         f"lost (yield `{name}`)")


@register
class MutableDefault(Rule):
    spec = RuleSpec("SIM005", "mutable default argument")
    node_types = (ast.FunctionDef,)

    def check(self, ctx: Any, node: ast.FunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                    and not default.args and not default.keywords):
                mutable = True
            if mutable:
                ctx.emit("SIM005", default,
                         f"mutable default argument in `{node.name}` is "
                         f"shared across calls — default to None")


@register
class LoopVariableCapture(Rule):
    spec = RuleSpec(
        "SIM006", "late-binding loop-variable capture in callback")
    node_types = (ast.FunctionDef, ast.Lambda)

    def check(self, ctx: Any, node: ast.AST) -> None:
        if not ctx.loop_targets:
            return
        args = node.args
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        params = {a.arg for a in (args.posonlyargs + args.args
                                  + args.kwonlyargs)}
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        active = set().union(*ctx.loop_targets)
        free: set[str] = set()
        todo = list(body)
        while todo:
            child = todo.pop()
            # Default expressions of nested lambdas evaluate eagerly, so
            # they bind the loop variable correctly — skip them.
            if isinstance(child, ast.Lambda):
                todo.extend(d for d in child.args.defaults)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx,
                                                          ast.Load):
                free.add(child.id)
            todo.extend(ast.iter_child_nodes(child))
        captured = sorted((free & active) - params)
        if captured:
            ctx.emit("SIM006", node,
                     f"callback captures loop variable(s) "
                     f"{', '.join(captured)} by reference — late binding "
                     f"will see the final value; bind via a default "
                     f"argument (`lambda _v={captured[0]}: ...`)")


class LayeringRule(Rule):
    """Base of the layering rules: flags calls that cross one of the
    subclass's :class:`Boundary` rows."""

    node_types = (ast.Call,)
    boundaries: ClassVar[tuple[Boundary, ...]] = ()

    def check(self, ctx: Any, node: ast.Call) -> None:
        name = callee_name(node.func)
        for boundary in self.boundaries:
            if (name not in boundary.names
                    or ctx.path.startswith(boundary.allowed)):
                continue
            if boundary.method_of is not None and not (
                    isinstance(node.func, ast.Attribute)
                    and (not boundary.method_of
                         or callee_name(node.func.value)
                         == boundary.method_of)):
                continue
            if boundary.module_hints:
                dotted = ctx.dotted(node.func) or name
                if dotted != name and not any(
                        part in boundary.module_hints
                        for part in dotted.split(".")):
                    continue
            ctx.emit(self.spec.id, node, boundary.message.format(name=name))
            return


@register
class DirectNetworkCtor(LayeringRule):
    """Network primitives whose construction belongs to the pluggable
    topology layer."""

    spec = RuleSpec(
        "SIM007",
        "direct switch/link construction outside topo/network factories")
    boundaries = (Boundary(
        frozenset({"CrossbarSwitch", "Link"}),
        ("repro/network/", "repro/topo/"),
        "direct `{name}(...)` construction bypasses the pluggable "
        "topology layer — configure `NetParams.topology` / use "
        "`repro.topo.make_topology`",
        module_hints=("network", "topo", "switch", "link")),)


@register
class NondetImport(Rule):
    spec = RuleSpec(
        "SIM008",
        "direct random/time stdlib import in simulation-scoped code",
        sim_scope_only=True)
    node_types = (ast.Import, ast.ImportFrom)

    def check(self, ctx: Any, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in SIM008_MODULES:
                    ctx.emit("SIM008", node,
                             f"`import {alias.name}` in simulation-scoped "
                             f"code — use `RngStreams` named streams / "
                             f"`Simulator.now` so runs stay deterministic")
        elif (node.module and node.level == 0
                and node.module.split(".")[0] in SIM008_MODULES):
            ctx.emit("SIM008", node,
                     f"`from {node.module} import ...` in "
                     f"simulation-scoped code — use `RngStreams` "
                     f"named streams / `Simulator.now` so runs stay "
                     f"deterministic")


@register
class DirectSegmentCtor(LayeringRule):
    """Segmented-pipeline primitives whose construction belongs to the
    segment planner / AB engine — and the segment *size*: a literal
    nonzero ``segment_size_bytes=`` is only the config front door's
    business (``PipelineParams(segment_size_bytes=...)`` is the one
    sanctioned spelling)."""

    spec = RuleSpec(
        "SIM009",
        "segment/descriptor construction or hard-coded segment size "
        "outside pipeline/core")
    boundaries = (Boundary(
        frozenset({"Segment", "Segmenter", "ReduceDescriptor"}),
        ("repro/pipeline/", "repro/core/"),
        "direct `{name}(...)` construction outside "
        "repro.pipeline/repro.core — every rank must derive the identical "
        "segment plan from `PipelineParams` (use `plan_segments` / the "
        "engine API)",
        module_hints=("pipeline", "segmenter", "descriptor", "core")),)

    def check(self, ctx: Any, node: ast.Call) -> None:
        super().check(ctx, node)
        (boundary,) = self.boundaries
        name = callee_name(node.func)
        if (name is None or name == "PipelineParams"
                or name in boundary.names
                or ctx.path.startswith(boundary.allowed)):
            return
        for kw in node.keywords:
            if (kw.arg == "segment_size_bytes"
                    and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, int)
                    and kw.value.value != 0):
                ctx.emit("SIM009", kw.value,
                         f"hard-coded `segment_size_bytes={kw.value.value}`"
                         f" outside a `PipelineParams(...)` call — segment "
                         f"sizing flows through the config block so every "
                         f"rank plans identically")


@register
class JobLevelFabricCtor(LayeringRule):
    """The shared-fabric primitives a *job* must never build for itself:
    under multi-tenancy every job receives host slots on the one cluster
    the scheduler owns (see DESIGN.md §14), so a ``Fabric``/``Cluster``/
    ``Topology`` built inside job-level code is a private world whose
    contention, routes, and invariants the tenancy layer can't see.
    Allowed: the tenancy/orchestration service layers that own the shared
    cluster, the legacy single-job entry point (``repro.runtime``), the
    layers that implement the primitives themselves, and tests."""

    spec = RuleSpec(
        "SIM013",
        "fabric/cluster/topology construction in job-level code "
        "(jobs receive the shared fabric from the scheduler)")
    boundaries = (Boundary(
        frozenset({"Fabric", "Cluster", "Topology", "CrossbarTopology",
                   "FatTreeTopology", "TorusTopology", "make_topology"}),
        ("repro/tenancy/", "repro/orchestrate/", "repro/runtime/",
         "repro/cluster/", "repro/network/", "repro/topo/",
         "test_", "conftest"),
        "direct `{name}(...)` construction in job-level code — jobs must "
        "receive host slots on the shared fabric from the tenancy "
        "scheduler (declare a `ClusterSpec` and submit `JobSpec`s, or use "
        "`repro.runtime.run_program`)",
        module_hints=("cluster", "network", "topo", "fabric", "runtime")),)


@register
class HandRolledCollectiveOrder(LayeringRule):
    """A send/recv ordering spelled out by hand — posting NIC descriptors
    (``start_send``) or framing AB protocol headers (``AbHeader``)
    outside the collective layers.  Since repro.schedule, collective
    orderings are data: lower to a Schedule (or call the engine/MPI
    APIs), so the validator can prove the ordering deadlock-free (matched
    sends) and the interpreter stays the single, bit-identical execution
    path.  Allowed: the layers that implement collectives
    (schedule/core/mpich/pipeline) and tests."""

    spec = RuleSpec(
        "SIM014",
        "hand-constructed collective send/recv ordering outside "
        "repro.schedule/repro.core (lower to a Schedule instead)")
    _allowed = ("repro/schedule/", "repro/core/", "repro/mpich/",
                "repro/pipeline/", "test_", "conftest")
    boundaries = (
        Boundary(
            frozenset({"start_send"}), _allowed,
            "direct `{name}(...)` descriptor post outside the collective "
            "layers — lower the ordering to a `repro.schedule` Schedule "
            "(validated, interpreter-executed) or go through the "
            "engine/MPI APIs",
            method_of=""),
        Boundary(
            frozenset({"AbHeader"}), _allowed,
            "hand-framed `{name}(...)` outside the collective layers — AB "
            "wire framing belongs to the engine; express the collective as "
            "a `repro.schedule` Schedule and let the interpreter execute "
            "it",
            module_hints=("mpich", "message")))


@register
class AdHocArrivalDelay(LayeringRule):
    """A pre-collective delay injected by hand — freezing a host CPU
    (``cpu.freeze``) outside the workload/fault layers — invents an
    arrival pattern the workload trace never records, so the PAP arrival
    oracle, the spread/kappa metrics in BENCH json, and the
    disarmed-neutrality regression all drift from what actually ran.
    Arrival patterns belong in ``WorkloadParams`` / ``repro.workload``.
    Allowed: the workload layer itself, the fault injectors (rank
    pause/crash are faults, not arrivals), the sim layer that implements
    the primitive, and tests."""

    spec = RuleSpec(
        "SIM015",
        "ad-hoc pre-collective delay injection outside repro.workload "
        "(arm WorkloadParams / use an arrival pattern instead)")
    boundaries = (Boundary(
        frozenset({"freeze"}),
        ("repro/workload/", "repro/faults/", "repro/sim/",
         "test_", "conftest"),
        "direct `{name}(...)` delay injection outside the workload layer "
        "— model late arrivals with an armed `WorkloadParams` arrival "
        "pattern (repro.workload) so the delay lands in the trace the PAP "
        "oracle and imbalance metrics read",
        method_of=""),)


@register
class AdHocProgressSpin(LayeringRule):
    """A hand-rolled blocking poll loop.  Parking on the NIC's receive
    notifier (``rx_notifier.wait()``) is the heart of the poll loop —
    drain, arm, bounded wait — which exists exactly once, behind
    ``ProgressEngine.spin(until, deadline)``.  A second copy forks the
    active-depth bookkeeping, the poll billing and the exit-delay timer
    that the bit-identity baselines pin.  Allowed: the progress engine
    itself and tests."""

    spec = RuleSpec(
        "SIM016",
        "ad-hoc progress spin (`rx_notifier.wait()`) outside "
        "repro.mpich.progress (use `ProgressEngine.spin`)")
    boundaries = (Boundary(
        frozenset({"wait"}),
        ("repro/mpich/progress.py", "test_", "conftest"),
        "direct `rx_notifier.wait()` outside the progress engine — block "
        "with `yield from progress.spin(until, deadline)` so the poll loop "
        "(drain, billing, active depth, bounded wait) stays in one place",
        method_of="rx_notifier"),)


@register
class TreeDerivedOutsideTheHelper(LayeringRule):
    """A ``ranks.family`` call — deriving a rank's parent and children from
    the configured tree — outside the one place a collective does it.
    Every entry point takes its rank's own ``steps=`` and reads its
    neighbours off them; a second derivation routes by *config* where the
    first routed by *schedule*, which is how the AB broadcast came to
    forward along a different tree than the reduce climbed.  Allowed: the
    tree shapes and lowerings themselves, the derivation helper's module
    (``own_steps``) and tests."""

    spec = RuleSpec(
        "SIM017",
        "tree neighbours derived from config (`ranks.family`) outside "
        "repro.topo/repro.schedule and the `own_steps` helper")
    boundaries = (Boundary(
        frozenset({"family"}),
        ("repro/topo/", "repro/schedule/", "repro/mpich/collectives/walk.py",
         "test_", "conftest"),
        "direct `{name}(...)` re-derives the tree from config — take "
        "neighbours from your steps (`steps=` / `own_steps`, then "
        "`reduce_neighbors` / `bcast_children`)",
        module_hints=("topo", "ranks", "tree")),)


@register
class JsonDecodedOutsideTheCodec(LayeringRule):
    """A ``json.load``/``json.loads`` call in the package outside the
    record codec (``repro.config``: ``loads`` / ``decode`` / ``typed``),
    the one place where a misspelt key, a ``4.7`` for an int or truncated
    text is a ``RecordError`` line.  A second parser is a second, laxer
    front door.  Allowed: the codec's module and tests."""

    spec = RuleSpec(
        "SIM018",
        "JSON decoded outside the record codec (`repro.config.loads` / "
        "`decode`)")
    boundaries = (Boundary(
        frozenset({"load", "loads"}),
        ("repro/config.py", "test_", "conftest"),
        "`json.{name}(...)` — decode outside input through the record "
        "codec (`repro.config.loads`, then `decode` / `typed`)",
        method_of="json"),)


# ---------------------------------------------------------------------------
# the determinism dataflow rules (SIM010–SIM011)
# ---------------------------------------------------------------------------

@register
class UnorderedIteration(Rule):
    """Iterating a set (or set-typed name) in simulation-scoped code
    makes the visit order an accident of hash seeding and insertion
    history — rank-keyed state must be walked in a defined order."""

    spec = RuleSpec(
        "SIM010",
        "iteration over an unordered set of simulation state "
        "(wrap in sorted())",
        sim_scope_only=True)
    #: For-loops always; comprehensions only when the sink is *ordered*
    #: (a list) — iterating a set into another set/dict-key space cannot
    #: leak the accidental order.
    node_types = (ast.For, ast.ListComp)

    def check(self, ctx: Any, node: ast.AST) -> None:
        iters = ([node.iter] if isinstance(node, ast.For)
                 else [gen.iter for gen in node.generators])
        for it in iters:
            reason = ctx.unordered_reason(it)
            if reason is None:
                continue
            ctx.emit("SIM010", it,
                     f"iteration over {reason} — set order is unspecified, "
                     f"so downstream effects depend on hash/insertion "
                     f"accidents; iterate `sorted(...)` (or a list) instead")


@register
class UnorderedScheduling(Rule):
    """Scheduling simulation events from inside a loop over an unordered
    container bakes the container's accidental order into same-time event
    seq numbers — exactly the tiebreak dependence the perturbation
    harness exists to catch."""

    spec = RuleSpec(
        "SIM011",
        "event scheduled from a loop over an unordered container "
        "(same-time order leaks from set iteration)",
        sim_scope_only=True)
    node_types = (ast.Call,)

    def check(self, ctx: Any, node: ast.Call) -> None:
        if not ctx.unordered_loop_stack:
            return
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in SCHEDULE_METHODS:
            return
        reason = ctx.unordered_loop_stack[-1]
        ctx.emit("SIM011", node,
                 f"`{node.func.attr}(...)` inside a loop over {reason} — "
                 f"the same-time event order inherits the set's accidental "
                 f"iteration order; iterate `sorted(...)` so every run "
                 f"schedules identically")

