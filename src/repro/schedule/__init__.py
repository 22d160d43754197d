"""Collective schedules as data (DESIGN.md §15).

A collective run is represented as an explicit :class:`~repro.schedule.ir.Schedule`
— per-rank ordered steps (send/recv/fold/bcast/wait) tagged with segment ids —
instead of orderings baked into engine code.  The package provides:

``ir``
    The frozen, JSON-round-trippable IR plus structural validation —
    O(steps), behind a typed JSON front door (:class:`ScheduleError`).
``lower``
    Lowerings that emit schedules from the existing tree-shape registry
    (whole-message and segmented variants for nab/AB reduce, bcast and
    allreduce), built from per-rank step functions that ``mpi.reduce`` /
    ``mpi.bcast`` also call for their own rank.
``passes``
    Pure ``Schedule -> Schedule`` rewrite passes behind a registry:
    Lowery–Langou greedy segment pipelining and tree reshaping.
``table``
    The persisted tuning table consulted by ``tree_shape="auto"`` /
    ``segment_size_bytes="auto"`` configs, with a deterministic fallback.
``tune``
    The autotuner CLI (``python -m repro.schedule.tune``) that sweeps
    lowering x shape x segment size through ``repro.orchestrate`` and
    writes the table under ``benchmarks/tuned/``.

This package sits *below* the collectives: it imports only ``repro.topo``,
and :mod:`repro.mpich.collectives` imports it.  Host-side steps execute in
:mod:`repro.mpich.collectives.walk`; :mod:`repro.core.interpreter` (above
the engines) dispatches a whole schedule onto that walker and the AB engine.
"""

from .ir import (BcastStep, FoldStep, RecvStep, Schedule, ScheduleError,
                 ScheduleValidationError, SendStep, Step, WaitStep,
                 reduce_neighbors)
from .lower import LOWERINGS, lower, register_lowering
from .passes import PASSES, PassError, apply_passes, get_pass, register_pass
from .table import (TunedEntry, TuningTable, clear_table_cache,
                    config_tree_shape, default_table_path,
                    load_default_table, resolve_pipeline_params,
                    resolve_tree_shape)

__all__ = [
    "Step", "SendStep", "RecvStep", "FoldStep", "BcastStep", "WaitStep",
    "Schedule", "ScheduleError", "ScheduleValidationError",
    "reduce_neighbors",
    "LOWERINGS", "lower", "register_lowering",
    "PASSES", "PassError", "register_pass", "get_pass", "apply_passes",
    "TunedEntry", "TuningTable", "default_table_path", "load_default_table",
    "clear_table_cache", "resolve_tree_shape", "resolve_pipeline_params",
    "config_tree_shape",
]
