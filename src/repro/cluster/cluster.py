"""Cluster assembly: simulator + fabric + nodes, from a ClusterConfig."""

from __future__ import annotations

from dataclasses import fields
from typing import Optional

from ..analysis.invariants import make_default_monitor
from ..config import ClusterConfig
from ..gm.reliability import ReliabilityStats
from ..network.fabric import Fabric
from ..sim.random import RngStreams
from ..sim.simulator import Simulator
from ..sim.trace import Tracer
from .node import Node


#: Counter fields that are high-water marks: a cluster's is the largest
#: one, not their sum.
_PEAK_FIELDS = ("max_window", "inflight_hwm")


def _fold(stats_class, stats: list, prefix: str = "") -> dict:
    """Cluster-wide value of every counter ``stats_class`` declares, over
    the per-NIC / per-rank ``stats`` (all zero over none)."""
    out = {}
    for f in fields(stats_class):
        values = [getattr(s, f.name) for s in stats]
        out[prefix + f.name] = (max(values, default=0)
                                if f.name in _PEAK_FIELDS else sum(values))
    return out


class Cluster:
    """A fully wired simulated cluster.

    Construction is cheap; nothing runs until processes are spawned (see
    :func:`repro.runtime.program.run_program`).
    """

    def __init__(self, config: ClusterConfig, tracer: Optional[Tracer] = None,
                 monitor=None):
        self.config = config
        self.tracer = tracer or Tracer()
        self.sim = Simulator()
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

    def total_signals(self) -> int:
        return sum(n.nic.stats.signals_raised for n in self.nodes)

    def _reliability_counters(self) -> dict:
        """Aggregate go-back-N protocol effort across every lossy NIC so
        BENCH json records how hard reliable delivery worked."""
        return _fold(ReliabilityStats,
                     [n.nic.reliable.stats for n in self.nodes
                      if n.nic.reliable is not None], "rel_")

    def _pipeline_counters(self) -> dict:
        """Aggregate segmented-pipeline effort (repro.pipeline) across the
        cluster: engine-side window behaviour plus NIC-side segment
        traffic.  On the default (non-AB) build only the NIC counters move;
        the engine gauges stay zero."""
        from ..pipeline.reduce import PipelineStats
        out = _fold(PipelineStats,
                    [n.ab_engine.pipeline.stats for n in self.nodes
                     if n.ab_engine is not None
                     and n.ab_engine.pipeline is not None])
        for name in ("segment_packets_sent", "segment_bytes_sent"):
            out[name] = sum(getattr(n.nic.stats, name) for n in self.nodes)
        return out
