"""Runtime protocol-invariant checking for the application-bypass engine.

The paper's Sec. IV protocol is a small state machine with invariants that
are easy to break during refactors and hard to catch from timing-level
tests alone.  :class:`InvariantMonitor` hooks the simulator, the GM NICs
and each rank's :class:`~repro.core.engine.AbEngine` and checks:

``INV-SIGNAL`` (Sec. IV, Figs. 3 & 5)
    NIC signals are enabled *iff* a reduce descriptor is outstanding or
    the rank's AB broadcast is armed: they may only be *enabled* then,
    and whenever the descriptor queue drains with no broadcast armed they
    must end up disabled.  At the exit of every AB ``MPI_Reduce`` the
    paper's diamond holds exactly.

``INV-COPY`` (Sec. V-B/V-C)
    Per AB message class the host copy count is fixed: expected/late
    messages are combined straight from the packet buffer (0 copies),
    early (unexpected) messages pay exactly 1 copy into the AB unexpected
    queue; the rejected reuse-the-MPICH-queues ablation pays one more of
    each.  Checked per message and, at finalize, as a counter identity
    over the engine's statistics.

``INV-DRAIN`` (Sec. IV-C)
    At finalize every descriptor queue and AB unexpected queue is empty —
    no reduction was dropped half-combined.

``INV-CLOCK``
    Event times popped by the simulator never run backwards.

``INV-FIFO`` (Sec. IV-D)
    Per-(src, dst) deliveries leave the fabric in strictly increasing
    arrival order.  MPI's non-overtaking rule and the root's in-order
    receive of segments are only sound if the network never reorders a
    pair's packets — multi-hop topologies (repro.topo) keep routes
    deterministic per pair precisely to preserve this.

``INV-SEGMENT`` (repro.pipeline)
    Segmented pipelined collectives must conserve segments: every emitted
    segment (a leaf stream send or an internal forward, identified by
    ``(dst, context, instance, seg, src)``) is folded **exactly once** at
    its destination — by a descriptor (a split-phase root's included) or
    the root's synchronous loop.  A duplicate fold is always a violation (a
    contribution counted twice); an emit that was never folded is a
    violation unless a crash accounts for it (the source or destination
    crashed, or the destination abandoned the source after its retry
    budget — both visible in the fault reports).

``INV-FAULT`` (repro.faults)
    When a fault schedule is armed, every injected fault is either
    *recovered* (the run drains normally) or *reported* (the recovery
    layer filed a fault report: subtree healed, send rerouted, child
    abandoned).  A live rank left with queued descriptors or unexpected
    entries at finalize — neither recovered nor reported — violates it.
    ``INV-DRAIN`` is relaxed *only* for crashed ranks: a fail-stopped
    process legitimately dies holding state.

Violations are collected into a structured report.  In ``assert`` mode the
first violation raises :class:`~repro.errors.InvariantViolation`
immediately (for CI); in ``collect`` mode the run continues and the report
is inspected afterwards (for diagnosis).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import InvariantViolation
from .findings import Violation

COLLECT = "collect"
ASSERT = "assert"

#: Process-wide default factory; installed by test harnesses so every
#: :class:`~repro.cluster.cluster.Cluster` built while it is set gets a
#: monitor without plumbing one through each call site.
_default_factory: Optional[Callable[[], "InvariantMonitor"]] = None


def set_default_monitor_factory(
        factory: Optional[Callable[[], "InvariantMonitor"]]) -> None:
    global _default_factory
    _default_factory = factory


def make_default_monitor() -> Optional["InvariantMonitor"]:
    return _default_factory() if _default_factory is not None else None


class InvariantMonitor:
    """Pluggable protocol-invariant checker (see module docstring)."""

    def __init__(self, mode: str = COLLECT):
        if mode not in (COLLECT, ASSERT):
            raise ValueError(f"unknown monitor mode {mode!r}")
        self.mode = mode
        self.violations: list[Violation] = []
        self.checks = 0
        self._engines: dict[int, object] = {}
        self._cluster = None
        self._fifo_last: dict[tuple[int, int], float] = {}
        #: Recovery-layer fault reports (INV-FAULT's "reported" arm).
        self.fault_reports: list[dict] = []
        self._faults = None
        #: Segment conservation ledgers (INV-SEGMENT, repro.pipeline):
        #: (dst, context, instance, seg, src) -> count.  Both stay empty on
        #: unsegmented runs.
        self._segment_emits: dict[tuple, int] = {}
        self._segment_folds: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, cluster: Any) -> None:
        """Hook a fully built cluster (sim loop + every NIC)."""
        self._cluster = cluster
        cluster.sim.add_monitor(self)
        fabric = getattr(cluster, "fabric", None)
        if fabric is not None:
            fabric.monitor = self
        for node in cluster.nodes:
            node.nic.monitor = self
        self._faults = getattr(cluster, "faults", None)

    def register_engine(self, engine: Any) -> None:
        """Called by :class:`AbEngine.__init__` when a monitor is wired."""
        self._engines[engine.rank.rank] = engine

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, invariant: str, node: Optional[int], time: float,
               detail: str, **context: Any) -> None:
        # Multi-tenant runs (repro.tenancy) tag each node with its job;
        # copying the tag into the violation keys INV-* reports by
        # tenant.  Single-job clusters and idle hosts carry no tag.
        if node is not None and self._cluster is not None:
            nodes = getattr(self._cluster, "nodes", ())
            if 0 <= node < len(nodes):
                owner = getattr(nodes[node], "job_id", None)
                if owner is not None:
                    context.setdefault("job_id", owner)
                    name = getattr(nodes[node], "job_name", None)
                    if name is not None:
                        context.setdefault("job", name)
        violation = Violation(invariant=invariant, node=node, time=time,
                              detail=detail, context=context)
        self.violations.append(violation)
        if self.mode == ASSERT:
            raise InvariantViolation(violation.render(), self.report())

    def report(self) -> dict:
        """Structured summary (JSON-serializable)."""
        out = {
            "mode": self.mode,
            "checks": self.checks,
            "violation_count": len(self.violations),
            "violations": [v.to_dict() for v in self.violations],
            "fault_report_count": len(self.fault_reports),
            "fault_reports": list(self.fault_reports),
        }
        by_job: dict[str, int] = {}
        for v in self.violations:
            job = v.context.get("job_id")
            if job is not None:
                by_job[str(job)] = by_job.get(str(job), 0) + 1
        if by_job:
            # Only present on multi-tenant runs, so single-job reports
            # stay byte-identical to previous checkouts.
            out["violations_by_job"] = by_job
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------------
    # hook points
    # ------------------------------------------------------------------
    def on_event(self, event_time: float, now: float) -> None:
        """Simulator pops an event (called before the clock advances)."""
        self.checks += 1
        if event_time < now:
            self.record("INV-CLOCK", None, now,
                        f"event time {event_time} precedes current time "
                        f"{now} — the virtual clock ran backwards")

    def on_delivery(self, src: int, dst: int, arrival: float,
                    now: float) -> None:
        """Fabric committed a delivery time for a (src, dst) packet."""
        self.checks += 1
        key = (src, dst)
        prev = self._fifo_last.get(key)
        if prev is not None and arrival <= prev:
            self.record(
                "INV-FIFO", dst, now,
                f"delivery from node {src} at t={arrival} does not follow "
                f"the pair's previous delivery at t={prev} — per-(src,dst) "
                "FIFO broken (paper Sec. IV-D)",
                src=src, arrival=arrival, prev=prev)
            return
        self._fifo_last[key] = arrival

    def on_signal_toggle(self, node_id: int, enabled: bool,
                         now: float) -> None:
        """NIC signal generation actually flipped (not a re-enable)."""
        self.checks += 1
        if not enabled:
            return
        engine = self._engines.get(node_id)
        if engine is None:
            return  # raw-NIC use (tests) — nothing to cross-check against
        if engine.descriptors.empty and engine.bcast is None:
            self.record(
                "INV-SIGNAL", node_id, now,
                "signals enabled with an empty descriptor queue and no "
                "AB broadcast armed — nothing outstanding can justify them "
                "(paper Fig. 3 exit diamond)",
                descriptors=len(engine.descriptors))

    def on_queue_drained(self, node_id: int, now: float) -> None:
        """Descriptor queue reached empty with no AB broadcast armed."""
        self.checks += 1
        engine = self._engines.get(node_id)
        if engine is None:
            return
        if engine.nic.signals_enabled:
            self.record(
                "INV-SIGNAL", node_id, now,
                "descriptor queue drained (no broadcast) but NIC signals are "
                "still enabled (paper Fig. 5: 'descriptor queue empty? -> "
                "disable signals')")

    def on_reduce_exit(self, node_id: int, now: float) -> None:
        """Synchronous component of an AB MPI_Reduce returned."""
        self.checks += 1
        engine = self._engines.get(node_id)
        if engine is None:
            return
        outstanding = (not engine.descriptors.empty
                       or engine.bcast is not None)
        enabled = engine.nic.signals_enabled
        if outstanding != enabled:
            self.record(
                "INV-SIGNAL", node_id, now,
                f"MPI_Reduce exit: signals_enabled={enabled} but "
                f"outstanding work={outstanding} (descriptors="
                f"{len(engine.descriptors)}, broadcast="
                f"{engine.bcast is not None}) — Fig. 3 requires them to "
                f"match",
                descriptors=len(engine.descriptors))

    def on_fault_report(self, node_id: int, kind: str, now: float,
                        **context: Any) -> None:
        """Recovery layer reports a fault it handled or gave up on.

        Reports are *not* violations: INV-FAULT requires every injected
        fault to be recovered **or** reported, so filing one is how an
        unrecoverable situation (e.g. a contribution lost with its crashed
        parent) stays honest instead of silently wrong.
        """
        self.checks += 1
        self.fault_reports.append(
            {"node": node_id, "kind": kind, "time": now, **context})

    def on_segment_emit(self, node_id: int, dst: int, context_id: int,
                        instance: int, seg: int, now: float) -> None:
        """One segment-tagged AB send left ``node_id`` for ``dst``."""
        self.checks += 1
        key = (dst, context_id, instance, seg, node_id)
        self._segment_emits[key] = self._segment_emits.get(key, 0) + 1

    def on_segment_fold(self, node_id: int, src: int, context_id: int,
                        instance: int, seg: int, now: float) -> None:
        """``node_id`` folded ``src``'s contribution for one segment."""
        self.checks += 1
        key = (node_id, context_id, instance, seg, src)
        count = self._segment_folds.get(key, 0) + 1
        self._segment_folds[key] = count
        if count > 1:
            self.record(
                "INV-SEGMENT", node_id, now,
                f"segment {seg} of instance {instance} (context "
                f"{context_id}) from node {src} folded {count} times — a "
                f"contribution was combined more than once",
                src=src, instance=instance, seg=seg, count=count)

    def on_ab_message(self, node_id: int, msg_class: str, copies: int,
                      reuse_mpich_queues: bool, now: float) -> None:
        """One AB reduce packet was classified and combined/buffered."""
        self.checks += 1
        expected = {"expected": 0, "unexpected": 1}.get(msg_class)
        if expected is None:
            self.record("INV-COPY", node_id, now,
                        f"unknown AB message class {msg_class!r}")
            return
        if reuse_mpich_queues:
            expected += 1
        if copies != expected:
            self.record(
                "INV-COPY", node_id, now,
                f"{msg_class} AB message paid {copies} host copies, "
                f"protocol requires exactly {expected} "
                f"(paper Sec. V-B/V-C)",
                msg_class=msg_class, copies=copies, expected=expected)

    # ------------------------------------------------------------------
    # finalize
    # ------------------------------------------------------------------
    def finalize(self) -> dict:
        """End-of-run checks; returns the structured report."""
        faulted = self._faults is not None
        for node_id, engine in sorted(self._engines.items()):
            now = engine.sim.now
            self.checks += 1
            if faulted and node_id in self._faults.crashed_ranks(now):
                # INV-DRAIN relaxed for crashed ranks only: a fail-stopped
                # process legitimately dies holding descriptors; its state
                # is frozen garbage, not protocol evidence.
                continue
            if not engine.descriptors.empty:
                self.record(
                    "INV-FAULT" if faulted else "INV-DRAIN", node_id, now,
                    f"{len(engine.descriptors)} reduce descriptor(s) still "
                    f"queued at finalize — a reduction never completed"
                    + (" (injected fault neither recovered nor reported)"
                       if faulted else ""),
                    descriptors=len(engine.descriptors))
            if not engine.unexpected.empty:
                self.record(
                    "INV-FAULT" if faulted else "INV-DRAIN", node_id, now,
                    f"{len(engine.unexpected)} AB unexpected entr(ies) "
                    f"never consumed at finalize"
                    + (" (injected fault neither recovered nor reported)"
                       if faulted else ""),
                    unexpected=len(engine.unexpected))
            if engine.nic.signals_enabled and engine.bcast is None:
                self.record(
                    "INV-SIGNAL", node_id, now,
                    "NIC signals still enabled at finalize with no AB "
                    "broadcast armed and an empty descriptor queue")
            self._check_copy_identity(node_id, engine, now)
        self._check_segment_conservation()
        return self.report()

    def _check_segment_conservation(self) -> None:
        """INV-SEGMENT: every emitted segment folded exactly once, or
        accounted for by a crash report (duplicate folds were flagged at
        fold time)."""
        if not self._segment_emits and not self._segment_folds:
            return
        now = 0.0
        if self._engines:
            now = max(e.sim.now for e in self._engines.values())
        crashed = (self._faults.crashed_ranks(now)
                   if self._faults is not None else set())
        abandoned = {(r["node"], r.get("child"))
                     for r in self.fault_reports
                     if r.get("kind") == "child_abandoned"}
        for key, emits in sorted(self._segment_emits.items()):
            dst, context_id, instance, seg, src = key
            folds = self._segment_folds.get(key, 0)
            self.checks += 1
            if folds >= emits:
                continue
            if src in crashed or dst in crashed or (dst, src) in abandoned:
                # Crash-accounted: the packet died with a crashed endpoint
                # or the destination honestly abandoned the sender.
                continue
            self.record(
                "INV-SEGMENT", dst, now,
                f"segment {seg} of instance {instance} (context "
                f"{context_id}) emitted by node {src} was never folded at "
                f"node {dst} and no crash accounts for it",
                src=src, instance=instance, seg=seg,
                emits=emits, folds=folds)
        for key, folds in sorted(self._segment_folds.items()):
            dst, context_id, instance, seg, src = key
            self.checks += 1
            if key not in self._segment_emits:
                self.record(
                    "INV-SEGMENT", dst, now,
                    f"node {dst} folded segment {seg} of instance "
                    f"{instance} (context {context_id}) from node {src} "
                    f"that was never emitted",
                    src=src, instance=instance, seg=seg, folds=folds)

    def _check_copy_identity(self, node_id: int, engine: Any,
                             now: float) -> None:
        """Sec. V-B/V-C copy accounting as a counter identity."""
        stats = engine.stats
        per_unexpected = 2 if engine.params.reuse_mpich_queues else 1
        per_expected = 1 if engine.params.reuse_mpich_queues else 0
        expected_copies = (stats.unexpected_one_copy * per_unexpected
                           + stats.expected_zero_copy * per_expected)
        if stats.ab_copies != expected_copies:
            self.record(
                "INV-COPY", node_id, now,
                f"copy accounting drifted: {stats.ab_copies} copies "
                f"recorded, identity predicts {expected_copies} "
                f"({stats.unexpected_one_copy} unexpected x "
                f"{per_unexpected} + {stats.expected_zero_copy} "
                f"expected x {per_expected})",
                ab_copies=stats.ab_copies, expected=expected_copies)
