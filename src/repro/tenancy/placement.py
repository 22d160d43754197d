"""Placement policies: where a job's ranks land on the shared cluster.

A policy maps a :class:`~repro.tenancy.spec.JobSpec` onto concrete host
slots chosen from the currently-free set.  Policies live behind a string
registry mirroring ``repro.topo.TOPOLOGIES`` so specs stay serializable
and new strategies plug in without touching the scheduler.

The contract (property-tested in ``tests/property``):

* ``place()`` is **pure and deterministic** — same (job, free set,
  cluster spec) in, same slot list out; no RNG, no wall clock.
* It returns exactly ``job.nranks`` distinct slots, all drawn from the
  free set, in ascending order (job rank *i* is the *i*-th smallest
  chosen slot, matching the world-rank ordering Communicators use).
* It never builds a :class:`Topology` or :class:`Fabric` — locality is
  computed analytically from the ClusterSpec knobs (simlint SIM013
  enforces that job-level code receives the shared fabric from the
  scheduler instead of constructing its own).
"""

from __future__ import annotations

from typing import Callable, FrozenSet

from ..config import check_name
from ..topo.torus import _auto_width
from .spec import ClusterSpec, JobSpec

#: Registry of placement policies, keyed by the JobSpec.placement name.
PLACEMENTS: dict[str, "PlacementPolicy"] = {}


def register_placement(name: str) -> Callable:
    """Class decorator registering a policy instance under ``name``."""
    def deco(cls):
        cls.name = name
        PLACEMENTS[name] = cls()
        return cls
    return deco


def make_placement(name: str) -> "PlacementPolicy":
    check_name("placement policy", name, PLACEMENTS)
    return PLACEMENTS[name]


def locality_block_size(spec: ClusterSpec) -> int:
    """Hosts per locality block, computed from the spec's topology knobs.

    Fat-tree: hosts under one edge switch (intra-block traffic never
    crosses an uplink).  Torus: one row of the grid (row neighbours are
    single hops under dimension-order routing).  Crossbar: the whole
    cluster is one switch, so locality is trivial.
    """
    if spec.topology == "fattree":
        return max(1, min(spec.hosts, spec.fattree_hosts_per_switch))
    if spec.topology == "torus":
        width = spec.torus_width or _auto_width(spec.hosts)
        return max(1, min(spec.hosts, width))
    return spec.hosts


def _blocks(free_slots: FrozenSet[int],
            block: int) -> dict[int, list[int]]:
    """Free slots grouped by locality block, each group ascending."""
    groups: dict[int, list[int]] = {}
    for slot in sorted(free_slots):
        groups.setdefault(slot // block, []).append(slot)
    return groups


class PlacementPolicy:
    """Base class; subclasses implement :meth:`place`."""

    name = "base"

    def place(self, job: JobSpec, free_slots: FrozenSet[int],
              spec: ClusterSpec) -> list[int]:
        raise NotImplementedError


@register_placement("packed")
class PackedPlacement(PlacementPolicy):
    """Lowest-numbered free slots: dense prefix packing.

    A solo job on an empty cluster lands on slots ``0..nranks-1`` —
    exactly the legacy single-job world — which is what makes the
    tenancy-vs-legacy bit-identity test meaningful.
    """

    def place(self, job, free_slots, spec):
        return sorted(free_slots)[:job.nranks]


@register_placement("spread")
class SpreadPlacement(PlacementPolicy):
    """Round-robin one slot per locality block, widest dispersion.

    Maximizes the number of blocks a job touches (anti-affinity): useful
    as the adversarial baseline that makes every collective cross
    uplinks and contend with every co-tenant.
    """

    def place(self, job, free_slots, spec):
        groups = _blocks(free_slots, locality_block_size(spec))
        order = sorted(groups)
        chosen: list[int] = []
        cursor = {b: 0 for b in order}
        while len(chosen) < job.nranks:
            took = False
            for b in order:
                if cursor[b] < len(groups[b]):
                    chosen.append(groups[b][cursor[b]])
                    cursor[b] += 1
                    took = True
                    if len(chosen) == job.nranks:
                        break
            if not took:  # fewer free slots than nranks: caller's bug
                break
        return sorted(chosen)


@register_placement("topology_aware")
class TopologyAwarePlacement(PlacementPolicy):
    """Fewest locality blocks that fit the job (affinity).

    Best-fit when a single block has room (the block with the fewest
    free slots that still fits, minimizing fragmentation for later
    jobs); otherwise greedily takes the fullest blocks until satisfied.
    Keeps a job inside one fat-tree pod / torus row whenever possible,
    in the spirit of Bine trees' communication-locality argument.
    """

    def place(self, job, free_slots, spec):
        groups = _blocks(free_slots, locality_block_size(spec))
        fitting = [b for b in sorted(groups)
                   if len(groups[b]) >= job.nranks]
        if fitting:
            best = min(fitting, key=lambda b: (len(groups[b]), b))
            return groups[best][:job.nranks]
        chosen: list[int] = []
        need = job.nranks
        for b in sorted(groups, key=lambda b: (-len(groups[b]), b)):
            take = min(need, len(groups[b]))
            chosen.extend(groups[b][:take])
            need -= take
            if need == 0:
                break
        return sorted(chosen)
