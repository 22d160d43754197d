"""repro.tenancy — multi-tenant cluster service.

Concurrent collective jobs sharing one simulated fabric: declarative
:class:`JobSpec`/:class:`ClusterSpec` requests, a :class:`Scheduler`
with pluggable placement policies (``packed`` / ``spread`` /
``topology_aware``), per-job namespacing and metrics (makespan,
slowdown vs. solo, min-max fairness), and a content-addressed
:class:`ResultCache` the orchestrator consults so repeated sweep points
are served bit-identically without re-simulating.
"""

from .cache import CACHE_SCHEMA, ResultCache, point_cache_key
from .placement import (PLACEMENTS, PlacementPolicy, locality_block_size,
                        make_placement, register_placement)
from .scheduler import AdmissionError, Placement, Scheduler
from .spec import COLLECTIVES, ClusterSpec, JobSpec, SpecError
from .service import JobResult, TenancyResult, run_tenancy
from .workload import JobRankSample, job_program

__all__ = [
    "AdmissionError", "CACHE_SCHEMA", "COLLECTIVES",
    "ClusterSpec", "JobRankSample", "JobResult", "JobSpec", "PLACEMENTS",
    "Placement", "PlacementPolicy", "ResultCache", "Scheduler",
    "SpecError", "TenancyResult", "job_program",
    "locality_block_size", "make_placement",
    "point_cache_key", "register_placement", "run_tenancy",
]
