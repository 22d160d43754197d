"""Content-addressed result cache: canonical point hash → BENCH point.

A sweep point is a pure function of its serialized form — ``(config,
build, kind, seed, options, ...)`` in, bit-deterministic metrics out —
so repeated requests for the same point can be served from disk without
re-simulating.  The cache key is the SHA-256 of the point's canonical
JSON (sorted keys) prefixed with the cache and BENCH schema versions, so
any schema bump invalidates every old entry *by construction* — stale
entries are never read, they simply stop being addressed.

What is cached is exactly what BENCH json records per point: metrics,
worker wall time, sim counters and the invariant report.  ``wall_time_s``
is the *original* measurement, not the (near-zero) cache-hit time, which
is what makes a warm re-run's BENCH points byte-identical to the cold
run's.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from ..config import RecordError, decode, encode, loads
from ..orchestrate.benchjson import SCHEMA_VERSION
from ..orchestrate.points import PointResult, SweepPoint

#: Bump when the cached record's shape (not the BENCH schema) changes.
CACHE_SCHEMA = 1


def point_cache_key(point: SweepPoint) -> str:
    """Canonical content address for one sweep point."""
    payload = {
        "cache_schema": CACHE_SCHEMA,
        "bench_schema": SCHEMA_VERSION,
        "point": point.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Directory-backed cache of completed sweep points."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, point: SweepPoint) -> Optional[PointResult]:
        """Served copy of ``point``'s result, or None (counted as a miss).

        Unreadable, corrupt and wrong-shaped entries count as misses and
        are overwritten by the next :meth:`put`.
        """
        path = self._path(point_cache_key(point))
        try:
            with open(path, "rb") as fh:
                result = decode(
                    PointResult, loads(fh.read(), "cache record"),
                    "cache record", point=point,
                    own=("cache_schema", "bench_schema", "key", "point"))
        except (OSError, RecordError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, result: PointResult) -> str:
        """Store a completed point; returns its content address."""
        key = point_cache_key(result.point)
        record = {"cache_schema": CACHE_SCHEMA, "bench_schema": SCHEMA_VERSION,
                  "key": key, **encode(result),
                  # written even when null: the record's shape is fixed
                  "invariant_report": result.invariant_report}
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(record, fh, sort_keys=True, indent=1)
        os.replace(tmp, self._path(key))
        return key

    def stats(self) -> dict:
        """Hit/miss counters plus the on-disk entry count."""
        entries = sum(1 for name in os.listdir(self.directory)
                      if name.endswith(".json"))
        return {"hits": self.hits, "misses": self.misses,
                "entries": entries}
