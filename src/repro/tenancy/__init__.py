"""repro.tenancy — multi-tenant cluster service.

Concurrent collective jobs sharing one simulated fabric: declarative
:class:`JobSpec`/:class:`ClusterSpec` requests, a :class:`Scheduler`
with pluggable placement policies (``packed`` / ``spread`` /
``topology_aware``), per-job namespacing and metrics (makespan,
slowdown vs. solo, min-max fairness).  The content-addressed result
cache the orchestrator consults is imported from :mod:`.cache`, so a
tenancy run never loads it.
"""

from .placement import (PLACEMENTS, PlacementPolicy, locality_block_size,
                        make_placement, register_placement)
from .scheduler import AdmissionError, Placement, Scheduler
from .spec import COLLECTIVES, ClusterSpec, JobSpec, SpecError
from .service import JobResult, TenancyResult, run_tenancy
from .workload import JobRankSample, job_program

__all__ = [
    "AdmissionError", "COLLECTIVES",
    "ClusterSpec", "JobRankSample", "JobResult", "JobSpec", "PLACEMENTS",
    "Placement", "PlacementPolicy", "Scheduler",
    "SpecError", "TenancyResult", "job_program",
    "locality_block_size", "make_placement",
    "register_placement", "run_tenancy",
]
