"""Cluster assembly: simulator + fabric + nodes, from a ClusterConfig."""

from __future__ import annotations

from typing import Optional

from ..analysis.invariants import make_default_monitor
from ..config import ClusterConfig
from ..network.fabric import Fabric
from ..sim.random import RngStreams
from ..sim.simulator import Simulator
from ..sim.trace import Tracer
from .node import Node


class Cluster:
    """A fully wired simulated cluster.

    Construction is cheap; nothing runs until processes are spawned (see
    :func:`repro.runtime.program.run_program`).
    """

    def __init__(self, config: ClusterConfig, tracer: Optional[Tracer] = None,
                 monitor=None):
        self.config = config
        self.tracer = tracer or Tracer()
        self.sim = Simulator(self.tracer)
        self.tracer.bind_clock(lambda: self.sim.now)
        self.rng = RngStreams(config.seed)
        self.fabric = Fabric(self.sim, config.net, config.size,
                             rng=self.rng.stream("fabric"))
        self.sim.add_counter_source(self.fabric.counters)
        self.nodes = [
            Node(self.sim, i, spec, config, self.fabric, self.tracer)
            for i, spec in enumerate(config.machines)
        ]
        for node in self.nodes:
            node.rng = self.rng
        #: Fault schedule (repro.faults); built only when an injector is
        #: armed, so a default config adds no streams, events or counters.
        self.faults = None
        if config.faults.armed:
            from ..faults import FaultSchedule
            self.faults = FaultSchedule(config.faults)
            self.faults.install(self)
            self.sim.add_counter_source(self.faults.counters)
        # GM reliability-protocol effort (satellite of the fault work):
        # exported whenever any NIC runs the go-back-N channel.
        if any(n.nic.reliable is not None for n in self.nodes):
            self.sim.add_counter_source(self._reliability_counters)
        # Pipelined-collective effort (repro.pipeline): exported only when
        # the config block is armed, so disarmed BENCH json is unchanged.
        if config.pipeline.armed:
            self.sim.add_counter_source(self._pipeline_counters)
        #: Process-arrival-pattern workload (repro.workload); built only
        #: when the config block is armed — a disarmed config draws no
        #: `workload/*` stream and registers no counter source, keeping the
        #: default simulation bit-identical to a pre-workload build.
        self.workload = None
        if config.workload.armed:
            from ..workload import WorkloadModel
            self.workload = WorkloadModel(config.workload, self.size,
                                          self.rng)
            self.sim.add_counter_source(self.workload.counters)
        #: Protocol-invariant monitor; explicit, or the process-wide
        #: default the test harness installs, or None (production).
        self.monitor = monitor if monitor is not None else \
            make_default_monitor()
        if self.monitor is not None:
            self.monitor.attach(self)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def cpu_usage_table(self) -> list[dict[str, float]]:
        """Per-node CPU accounting snapshots (for reports and tests)."""
        return [n.cpu.usage_snapshot() for n in self.nodes]

    def total_signals(self) -> int:
        return sum(n.nic.stats.signals_raised for n in self.nodes)

    def _reliability_counters(self) -> dict:
        """Aggregate go-back-N protocol effort across every lossy NIC so
        BENCH json records how hard reliable delivery worked."""
        out = {
            "rel_acks_sent": 0, "rel_acks_received": 0,
            "rel_retransmissions": 0, "rel_duplicates_discarded": 0,
            "rel_gaps_discarded": 0, "rel_timer_fires": 0,
            "rel_max_window": 0,
        }
        for node in self.nodes:
            channel = node.nic.reliable
            if channel is None:
                continue
            s = channel.stats
            out["rel_acks_sent"] += s.acks_sent
            out["rel_acks_received"] += s.acks_received
            out["rel_retransmissions"] += s.retransmissions
            out["rel_duplicates_discarded"] += s.duplicates_discarded
            out["rel_gaps_discarded"] += s.gaps_discarded
            out["rel_timer_fires"] += s.timer_fires
            out["rel_max_window"] = max(out["rel_max_window"], s.max_window)
        return out

    def _pipeline_counters(self) -> dict:
        """Aggregate segmented-pipeline effort (repro.pipeline) across the
        cluster: engine-side window behaviour plus NIC-side segment
        traffic.  On the default (non-AB) build only the NIC counters move;
        the engine gauges stay zero."""
        out = {
            "segments_sent": 0, "segments_folded": 0,
            "segments_folded_async": 0, "root_segment_folds": 0,
            "pipeline_stalls": 0, "inflight_hwm": 0,
            "pipelined_reduces": 0, "pipelined_allreduces": 0,
            "stale_segments_dropped": 0,
            "segment_packets_sent": 0, "segment_bytes_sent": 0,
        }
        for node in self.nodes:
            nstats = node.nic.stats
            out["segment_packets_sent"] += nstats.segment_packets_sent
            out["segment_bytes_sent"] += nstats.segment_bytes_sent
            engine = node.ab_engine
            if engine is None or engine.pipeline is None:
                continue
            s = engine.pipeline.stats
            out["segments_sent"] += s.segments_sent
            out["segments_folded"] += s.segments_folded
            out["segments_folded_async"] += s.segments_folded_async
            out["root_segment_folds"] += s.root_segment_folds
            out["pipeline_stalls"] += s.pipeline_stalls
            out["stale_segments_dropped"] += s.stale_segments_dropped
            out["pipelined_reduces"] += s.pipelined_reduces
            out["pipelined_allreduces"] += s.pipelined_allreduces
            out["inflight_hwm"] = max(out["inflight_hwm"], s.inflight_hwm)
        return out
