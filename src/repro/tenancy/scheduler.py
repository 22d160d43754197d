"""The job scheduler: admission + slot bookkeeping for one shared cluster.

The :class:`Scheduler` owns the free-slot set of a
:class:`~repro.tenancy.spec.ClusterSpec` and turns submitted
:class:`~repro.tenancy.spec.JobSpec` requests into :class:`Placement`
records — disjoint by construction, because a slot leaves the free set
the moment it is granted.  Placement *strategy* is delegated to the
pluggable policies in :mod:`repro.tenancy.placement`; this module only
enforces the invariants every policy must satisfy (defensively, so a
buggy third-party policy fails loudly at submit time rather than as a
cross-job protocol violation deep inside the simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .placement import make_placement
from .spec import ClusterSpec, JobSpec


class AdmissionError(RuntimeError):
    """The cluster cannot host this job (not enough free slots, or the
    placement policy returned an invalid slot set)."""


@dataclass(frozen=True)
class Placement:
    """One admitted job pinned to concrete host slots.

    ``slots`` is ascending; job-relative rank *i* runs on world slot
    ``slots[i]`` (the same world-rank ordering Communicator groups use).
    ``job_id`` is the submission index — the key every per-job namespace
    (communicator name, sim-process names, node tags, invariant-report
    entries, BENCH metrics) derives from.
    """

    job: JobSpec
    job_id: int
    slots: tuple[int, ...]


@dataclass
class Scheduler:
    """Slot bookkeeping for one shared cluster."""

    spec: ClusterSpec
    _free: set = field(init=False)
    _admitted: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.spec.validate()
        self._free = set(range(self.spec.hosts))

    @property
    def free_slots(self) -> tuple[int, ...]:
        return tuple(sorted(self._free))

    def submit(self, job: JobSpec) -> Placement:
        """Admit one job: pick slots via its placement policy, mark them
        busy, and return the pinned :class:`Placement`."""
        job.validate()
        policy = make_placement(job.placement)
        if job.nranks > len(self._free):
            raise AdmissionError(
                f"job {job.name!r} needs {job.nranks} slots but only "
                f"{len(self._free)} of {self.spec.hosts} are free")
        slots = list(policy.place(job, frozenset(self._free), self.spec))
        # Defensive validation of the policy contract: exactly nranks
        # distinct free in-range slots (a malformed policy must not be
        # able to alias two jobs onto one host).
        if (len(slots) != job.nranks or len(set(slots)) != len(slots)
                or not set(slots) <= self._free):
            raise AdmissionError(
                f"placement policy {job.placement!r} returned invalid "
                f"slots {slots} for job {job.name!r} "
                f"(free: {self.free_slots})")
        placement = Placement(job=job, job_id=self._admitted,
                              slots=tuple(sorted(slots)))
        self._free -= set(slots)
        self._admitted += 1
        return placement

    def schedule(self, jobs) -> list[Placement]:
        """Admit a batch in submission order (names must be unique —
        they key RNG streams and sim-process names)."""
        jobs = list(jobs)
        names = [j.name for j in jobs]
        if len(set(names)) != len(names):
            raise AdmissionError(f"duplicate job names in batch: {names}")
        return [self.submit(job) for job in jobs]
