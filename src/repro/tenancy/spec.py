"""Declarative job and cluster specifications for the multi-tenant service.

A :class:`JobSpec` describes one tenant's collective job — how many ranks
it needs, which collective it runs, message size, build (ab vs. nab),
iteration count and per-iteration arrival skew — without saying *where* it
runs.  A :class:`ClusterSpec` describes the shared cluster — host count,
config factory, interconnect topology and tree-shape knobs — without
saying *what* runs on it.  The scheduler (:mod:`repro.tenancy.scheduler`)
joins the two by mapping each job's relative ranks onto disjoint host
slots of one shared fabric.

Both specs are frozen, validated, and JSON round-trippable, in the style
of codeflare's ``ClusterConfiguration``: a spec is a request you can
store, hash (the result cache keys on it via the orchestrator's
``SweepPoint``), and resubmit bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ClusterConfig, MpiParams, NetParams, Record, check_name
from ..mpich.rank import BUILD_TAGS
from ..topo import TOPOLOGIES, TREE_SHAPES

#: Collectives a JobSpec may request (dispatched by repro.tenancy.workload).
COLLECTIVES = ("reduce", "allreduce", "bcast", "barrier")


class SpecError(ValueError):
    """A JobSpec/ClusterSpec failed validation."""


@dataclass(frozen=True)
class JobSpec(Record):
    """One tenant's collective job (placement-free)."""

    WHERE = "job"

    #: Human-readable job name; must be unique within one submission batch
    #: (it names the job's RNG streams and sim processes).
    name: str
    #: Number of ranks the job needs (host slots are exclusive: one rank
    #: per slot, no oversubscription of a slot across jobs).
    nranks: int
    #: Which collective the job runs each iteration.
    collective: str = "reduce"
    #: Payload elements (float64 words) per collective call.
    elements: int = 4
    #: "ab" (application-bypass) or "nab" (default MPICH-over-GM).
    build: str = "ab"
    #: Measured iterations (after warmup).
    iterations: int = 10
    #: Warmup iterations excluded from latency samples.
    warmup: int = 2
    #: Per-rank per-iteration injected arrival skew, uniform in
    #: ``[0, max_skew_us]`` (the paper's imbalanced-arrival regime).
    max_skew_us: float = 0.0
    #: Virtual time at which the job arrives at the cluster; its ranks
    #: sleep passively until then (co-tenant jobs may arrive staggered).
    arrival_us: float = 0.0
    #: Placement policy name (see repro.tenancy.placement.PLACEMENTS).
    placement: str = "packed"

    def validate(self) -> None:
        if not self.name:
            raise SpecError("job name must be non-empty")
        if self.nranks < 1:
            raise SpecError(f"job {self.name!r}: nranks must be >= 1")
        if self.collective not in COLLECTIVES:
            raise SpecError(
                f"job {self.name!r}: unknown collective "
                f"{self.collective!r}; known: {list(COLLECTIVES)}")
        if self.build not in BUILD_TAGS:
            raise SpecError(f"job {self.name!r}: unknown build "
                            f"{self.build!r}; known: {list(BUILD_TAGS)}")
        if self.elements < 1:
            raise SpecError(f"job {self.name!r}: elements must be >= 1")
        if self.iterations < 1:
            raise SpecError(f"job {self.name!r}: iterations must be >= 1")
        if self.warmup < 0:
            raise SpecError(f"job {self.name!r}: warmup must be >= 0")
        if self.max_skew_us < 0.0:
            raise SpecError(f"job {self.name!r}: max_skew_us must be >= 0")
        if self.arrival_us < 0.0:
            raise SpecError(f"job {self.name!r}: arrival_us must be >= 0")
        if not self.placement:
            raise SpecError(f"job {self.name!r}: placement must be named")


@dataclass(frozen=True)
class ClusterSpec(Record):
    """The shared cluster every tenant contends on (job-free)."""

    WHERE = "cluster"

    #: Total host slots (one rank per slot).
    hosts: int
    #: Named ClusterConfig factory (repro.orchestrate.points
    #: CONFIG_FACTORIES): "paper" | "homogeneous" | "extrapolated" |
    #: "quiet".
    factory: str = "quiet"
    #: Cluster RNG seed (skew/noise streams, drop draws, ...).
    seed: int = 1
    #: Interconnect topology (repro.topo registry).
    topology: str = "crossbar"
    #: Fat-tree: hosts per edge switch — also the locality block the
    #: topology_aware placement policy tries to keep a job inside.
    fattree_hosts_per_switch: int = 8
    #: Fat-tree: host-port to uplink bandwidth ratio.
    fattree_oversubscription: float = 1.0
    #: Torus: X extent (0 = auto-factor) — the torus locality block is
    #: one row of the grid.
    torus_width: int = 0
    #: Reduction-tree shape + radix shared by all jobs' collectives.
    tree_shape: str = "binomial"
    tree_radix: int = 2

    def validate(self) -> None:
        from ..orchestrate.points import CONFIG_FACTORIES
        if self.hosts < 1:
            raise SpecError("cluster hosts must be >= 1")
        check_name("config factory", self.factory, CONFIG_FACTORIES, SpecError)
        check_name("topology", self.topology, TOPOLOGIES, SpecError)
        check_name("tree shape", self.tree_shape, (*TREE_SHAPES, "auto"),
                   SpecError)

    def to_config_spec(self):
        """Lower to the orchestrator's serializable ConfigSpec.

        A block is attached only when it differs from the parameter-block
        default, so a default-knob ClusterSpec lowers to the exact same
        ConfigSpec (same ``variant()`` digest, same BENCH keys) a
        pre-tenancy sweep would have produced.
        """
        from ..orchestrate.points import ConfigSpec
        self.validate()
        net = NetParams(
            topology=self.topology,
            fattree_hosts_per_switch=self.fattree_hosts_per_switch,
            fattree_oversubscription=self.fattree_oversubscription,
            torus_width=self.torus_width)
        mpi = MpiParams(tree_shape=self.tree_shape,
                        tree_radix=self.tree_radix)
        return ConfigSpec(self.factory, self.hosts, self.seed,
                          net=None if net == NetParams() else net,
                          mpi=None if mpi == MpiParams() else mpi)

    def build_config(self) -> ClusterConfig:
        return self.to_config_spec().build()
