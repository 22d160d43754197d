"""The persisted tuning table behind ``tree_shape="auto"`` and
``segment_size_bytes="auto"``.

The autotuner (:mod:`repro.schedule.tune`) sweeps lowerings x tree shapes x
segment sizes through the orchestrator and writes a versioned JSON table of
winners keyed by (topology, nranks, message-size bucket).  At runtime,
configs with ``MpiParams.tree_shape == "auto"`` or
``PipelineParams.segment_size_bytes == "auto"`` consult the table per call
via :meth:`repro.cluster.node.Node.tree_shape_for` /
:meth:`~repro.cluster.node.Node.pipeline_params_for`.

Resolution is deterministic: an exact (topology, nranks) match is required,
message sizes match against ``[min_msg_bytes, max_msg_bytes]`` buckets in
file order, and when nothing matches the fallback is a binomial tree /
disarmed pipeline — i.e. the historical defaults.  The table path defaults
to ``benchmarks/tuned/smoke.json`` in the repo and can be overridden with
the ``REPRO_TUNED_TABLE`` environment variable; a missing file is an empty
table, never an error.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..config import RecordError, check_name, decode, encode, loads
from ..topo import TOPOLOGIES, TREE_SHAPES
from ..topo.trees import TreeShape, make_tree_shape

TABLE_SCHEMA = 1
TABLE_ENV = "REPRO_TUNED_TABLE"

FALLBACK_TREE_SHAPE = "binomial"


def default_table_path() -> Path:
    """The table consulted by "auto" configs (env override wins)."""
    env = os.environ.get(TABLE_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "benchmarks" / "tuned" / "smoke.json"


@dataclass(frozen=True)
class TunedEntry:
    """One tuned cell: winners for a (topology, nranks, size-bucket)."""

    topology: str
    nranks: int
    min_msg_bytes: int
    max_msg_bytes: int
    tree_shape: str = FALLBACK_TREE_SHAPE
    tree_radix: int = 2
    segment_size_bytes: int = 0
    max_inflight_segments: int = 4
    #: Provenance (experiment, seed, measured latency); read by people only.
    source: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_name("topology", self.topology, TOPOLOGIES)
        check_name("tree shape", self.tree_shape, TREE_SHAPES)
        for rule, holds in (
                ("nranks >= 1", self.nranks >= 1),
                ("tree_radix >= 2", self.tree_radix >= 2),
                ("0 <= min_msg_bytes <= max_msg_bytes",
                 0 <= self.min_msg_bytes <= self.max_msg_bytes),
                ("segment_size_bytes >= 0", self.segment_size_bytes >= 0),
                ("max_inflight_segments >= 1",
                 self.max_inflight_segments >= 1)):
            if not holds:
                raise RecordError(f"a tuned entry needs {rule}: {self}")

    def matches(self, topology: str, nranks: int, nbytes: int) -> bool:
        return (self.topology == topology and self.nranks == nranks
                and self.min_msg_bytes <= nbytes <= self.max_msg_bytes)


@dataclass
class TuningTable:
    """A versioned, ordered list of tuned entries."""

    tool: str = "repro.schedule.tune"
    entries: List[TunedEntry] = field(default_factory=list)

    def lookup(self, topology: str, nranks: int,
               nbytes: int) -> Optional[TunedEntry]:
        """First entry matching (topology, nranks, nbytes), or None."""
        for entry in self.entries:
            if entry.matches(topology, nranks, nbytes):
                return entry
        return None

    def to_dict(self) -> dict:
        return {"schema": TABLE_SCHEMA, **encode(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TuningTable":
        return decode(cls, d, "tuning table", schema=TABLE_SCHEMA)

    def dump(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=False)
                        + "\n")

    @classmethod
    def load(cls, path: Path) -> "TuningTable":
        """The table in ``path`` (a missing file is an empty table); a
        damaged one is one :class:`~repro.config.RecordError` line."""
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            return cls.from_dict(loads(path.read_text(), "tuning table"))
        except RecordError as exc:
            raise RecordError(f"{path}: {exc}") from None


_TABLE_CACHE: Dict[str, TuningTable] = {}
_SHAPE_CACHE: Dict[Tuple[str, int], TreeShape] = {}


def load_default_table() -> TuningTable:
    """Load (and cache) the default table; empty when the file is absent."""
    key = str(default_table_path())
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = TuningTable.load(Path(key))
        _TABLE_CACHE[key] = table
    return table


def clear_table_cache() -> None:
    """Drop cached tables/shapes (tests point REPRO_TUNED_TABLE elsewhere)."""
    _TABLE_CACHE.clear()
    _SHAPE_CACHE.clear()


def _shape(name: str, radix: int) -> TreeShape:
    key = (name, radix)
    shape = _SHAPE_CACHE.get(key)
    if shape is None:
        shape = make_tree_shape(name, radix=radix)
        _SHAPE_CACHE[key] = shape
    return shape


def resolve_tree_shape(config, nbytes: int) -> TreeShape:
    """Tree shape for an ``"auto"`` config and a payload of ``nbytes``."""
    entry = load_default_table().lookup(config.net.topology, config.size,
                                        int(nbytes))
    if entry is None:
        return _shape(FALLBACK_TREE_SHAPE, config.mpi.tree_radix)
    return _shape(entry.tree_shape, entry.tree_radix)


def resolve_pipeline_params(config, nbytes: int):
    """Concrete PipelineParams for an ``"auto"`` config; fallback disarmed."""
    from ..config import PipelineParams
    base = config.pipeline
    entry = load_default_table().lookup(config.net.topology, config.size,
                                        int(nbytes))
    if entry is None:
        return PipelineParams(segment_size_bytes=0,
                              max_inflight_segments=base.max_inflight_segments,
                              schedule=base.schedule)
    return PipelineParams(segment_size_bytes=entry.segment_size_bytes,
                          max_inflight_segments=entry.max_inflight_segments,
                          schedule=base.schedule)


def config_tree_shape(config, nbytes: int) -> TreeShape:
    """Auto-aware replacement for ``make_tree_shape(config.mpi.tree_shape)``."""
    if config.mpi.tree_shape == "auto":
        return resolve_tree_shape(config, nbytes)
    return make_tree_shape(config.mpi.tree_shape, radix=config.mpi.tree_radix)
