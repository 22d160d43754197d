"""Fault-injection framework: injector registry and the FaultSchedule.

A :class:`FaultSchedule` is compiled from a :class:`repro.config.FaultParams`
block.  It instantiates every *armed* injector (sorted by registry name so the
installation order — and therefore event insertion order — is deterministic)
and installs them into a :class:`repro.cluster.Cluster`.  Injectors hook into
existing simulation components (fabric, NIC, host CPU) through small, explicit
extension points; when no injector is armed the schedule is never built and
the simulation is bit-identical to a fault-free run.

Extension guide (mirrors ``repro.topo``): subclass :class:`FaultInjector`,
decorate with :func:`register_injector`, implement ``armed``/``install`` and
optionally ``counters``.  See DESIGN.md §10.
"""

from __future__ import annotations

from ..errors import ConfigError

INJECTORS: dict = {}


def register_injector(name):
    """Class decorator registering a :class:`FaultInjector` under ``name``."""

    def deco(cls):
        if name in INJECTORS:
            raise ConfigError(f"duplicate fault injector name: {name!r}")
        INJECTORS[name] = cls
        cls.name = name
        return cls

    return deco


class FaultInjector:
    """Base class for pluggable fault injectors.

    Subclasses implement:

    - ``armed(params)`` (classmethod): whether this injector is active for the
      given :class:`FaultParams` block.
    - ``install(cluster)``: hook into the cluster (schedule events, install
      fabric/NIC/CPU hooks).  Called once, before any process runs.
    - ``counters()``: dict of injector-local counters merged into the
      schedule's counter source.
    """

    name = "?"

    def __init__(self, params):
        self.params = params
        self.injected = 0

    @classmethod
    def armed(cls, params):  # pragma: no cover - interface
        raise NotImplementedError

    def install(self, cluster):  # pragma: no cover - interface
        raise NotImplementedError

    def counters(self):
        return {}


class FaultSchedule:
    """All armed injectors for one cluster, plus the crash oracle.

    The schedule doubles as the (deterministic, omniscient) failure detector
    assumed by the recovery layer: because faults are injected from a seeded
    schedule, every component may consult :meth:`is_crashed` instead of
    running a heartbeat protocol.  This is the standard "perfect failure
    detector" simplification from the fault-tolerance literature and is
    documented in DESIGN.md §10.
    """

    def __init__(self, params):
        self.params = params
        self.cluster = None
        self.injectors = [INJECTORS[name](params)
                          for name in sorted(INJECTORS)
                          if INJECTORS[name].armed(params)]

    def install(self, cluster):
        self.cluster = cluster
        for node in cluster.nodes:
            node.crash_oracle = self.is_crashed
        for injector in self.injectors:
            injector.install(cluster)

    # -- crash oracle -----------------------------------------------------

    def is_crashed(self, rank, now):
        p = self.params
        return p.crash_rank >= 0 and rank == p.crash_rank and now >= p.crash_at_us

    def crashed_ranks(self, now):
        p = self.params
        if p.crash_rank >= 0 and now >= p.crash_at_us:
            return {p.crash_rank}
        return set()

    # -- counters ---------------------------------------------------------

    def counters(self):
        out = {"faults_injected": sum(i.injected for i in self.injectors)}
        for injector in self.injectors:
            out.update(injector.counters())
        # Signals swallowed *by the injector* only — the NIC's own
        # ``signals_suppressed`` stat also counts benign coalescing and
        # disabled-window drops, which are not faults.
        out["signals_suppressed"] = sum(
            i.injected for i in self.injectors
            if i.name == "nic_signal_suppress")
        retransmissions = 0
        descriptors_timed_out = 0
        subtrees_healed = 0
        if self.cluster is not None:
            for node in self.cluster.nodes:
                if node.nic.reliable is not None:
                    retransmissions += node.nic.reliable.stats.retransmissions
                engine = node.ab_engine
                if engine is not None:
                    descriptors_timed_out += engine.stats.descriptors_timed_out
                    subtrees_healed += engine.stats.subtrees_healed
        out["retransmissions"] = retransmissions
        out["descriptors_timed_out"] = descriptors_timed_out
        out["subtrees_healed"] = subtrees_healed
        return out
