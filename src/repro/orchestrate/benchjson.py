"""BENCH_<name>.json — the machine-readable perf trajectory of a sweep.

Schema (version 1)::

    {
      "schema": 1,
      "name": "fig7",
      "git_sha": "abc1234...",          # "unknown" outside a git checkout
      "created_unix": 1754400000,
      "jobs": 4,                         # --jobs the sweep ran with
      "total_wall_s": 12.34,             # sum of per-point wall times
      "events_per_sec": 61234.5,         # aggregate sim-events throughput
      "points": [
        {
          "key": {"experiment": "fig7", "kind": "cpu_util", "size": 32,
                  "skew_us": 1000.0, "build": "ab", "elements": 4,
                  "seed": 1, "iterations": 100},
          "metrics": {"avg_util_us": 12.3, ...},   # bit-deterministic
          "wall_time_s": 0.42,                     # host time; noisy
          "counters": {"events": 123456, "ops": 23456},
          "events_per_sec": 58923.1,               # host throughput; noisy
          "seed": 1
        }, ...
      ]
    }

``metrics`` and ``counters`` values are pure functions of the key (the
simulator is deterministic), so the compare CLI treats any difference in
either as drift;
``wall_time_s`` is host time, which ``summarize`` prints and nothing
gates.  ``events_per_sec`` (``counters["events"] / wall_time_s``, the
DES core's throughput) is wall-derived and therefore *also* host-noisy:
it lives beside ``wall_time_s``, never inside ``metrics``, so a slow
runner can't fail the exact-metric gate.  Null when a point's executor
reports no event counter.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from ..config import RecordError, loads, typed
from .points import PointResult

SCHEMA_VERSION = 1


def git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """Current commit sha, or "unknown" outside a usable git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=cwd)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def events_per_sec(counters: dict, wall_time_s: float) -> Optional[float]:
    """Simulator-event throughput for one run, or None when the executor
    reported no event counter (e.g. the closed-form NIC-reduction model)."""
    events = counters.get("events")
    if not events or wall_time_s <= 0:
        return None
    return float(events) / wall_time_s


def bench_payload(name: str, results: Sequence[PointResult], *,
                  jobs: int = 1, sha: Optional[str] = None) -> dict:
    """Build the schema-1 payload for a completed sweep."""
    points = []
    total_events = 0
    counted_wall = 0.0
    first: dict[str, PointResult] = {}
    for res in results:
        # SweepPoint.key() omits executor options, so two points that
        # differ only there would collapse into one record on load.
        key = res.point.key()
        twin = first.setdefault(_key_string(key), res)
        if twin is not res:
            raise ValueError(
                f"BENCH_{name}: two points share one key — "
                f"{twin.point.label()} options={twin.point.options} and "
                f"{res.point.label()} options={res.point.options}; put the "
                f"distinguishing option in the experiment tag")
        points.append({
            "key": key,
            "metrics": dict(res.metrics),
            "wall_time_s": res.wall_time_s,
            "counters": dict(res.counters),
            "events_per_sec": events_per_sec(res.counters, res.wall_time_s),
            "seed": res.point.config.seed,
        })
        if res.counters.get("events"):
            total_events += int(res.counters["events"])
            counted_wall += res.wall_time_s
    return {
        "schema": SCHEMA_VERSION,
        "name": name,
        "git_sha": sha if sha is not None else git_sha(),
        "created_unix": int(time.time()),
        "jobs": jobs,
        "total_wall_s": sum(r.wall_time_s for r in results),
        "events_per_sec": (total_events / counted_wall
                           if counted_wall > 0 else None),
        "points": points,
    }


def write_bench_json(name: str, results: Sequence[PointResult], *,
                     directory: Union[str, Path, None] = None,
                     path: Union[str, Path, None] = None,
                     jobs: int = 1, sha: Optional[str] = None) -> Path:
    """Write ``BENCH_<name>.json`` (or an explicit ``path``); returns it."""
    if path is None:
        directory = Path(directory) if directory is not None else Path(".")
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{name}.json"
    else:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
    payload = bench_payload(name, results, jobs=jobs, sha=sha)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench_json(path: Union[str, Path]) -> dict:
    """Load a BENCH_*.json payload, checking once the shape its consumers
    index into (``points``: objects whose ``key``/``metrics``/``counters``
    are objects, metric values and ``wall_time_s`` numbers, no key twice);
    anything else is one :class:`~repro.config.RecordError` line."""
    try:
        # A metric may be NaN (a fault_reduce root that never finished a
        # reduce), and write_bench_json writes it as the literal NaN.
        payload = loads(Path(path).read_bytes(), "BENCH json", allow_nan=True)
        if type(payload) is not dict or "points" not in payload:
            raise RecordError("not a BENCH json (no 'points')")
        schema = payload.get("schema")
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise RecordError(f"unsupported schema {schema!r} "
                              f"(expected {SCHEMA_VERSION})")
        is_object, is_number = typed(dict), typed(float)
        for i, record in enumerate(typed(tuple)("points", payload["points"])):
            at = f"points[{i}]"
            is_object(at, record)
            is_object(f"{at}.key", record.get("key"))
            is_object(f"{at}.counters", record.get("counters", {}))
            is_number(f"{at}.wall_time_s", record.get("wall_time_s"))
            for name, value in is_object(
                    f"{at}.metrics", record.get("metrics")).items():
                is_number(f"{at}.metrics.{name}", value)
        point_index(payload)
    except ValueError as exc:
        raise RecordError(f"{path}: {exc}") from None
    return payload


def _key_string(key: dict) -> str:
    return json.dumps(key, sort_keys=True)


def key_label(key: dict) -> str:
    """One-line human label of a BENCH point key — of any object."""
    skew = key.get("skew_us")
    if type(skew) in (int, float):
        skew = f"{skew:g}"
    return (f"{key.get('experiment')}/{key.get('kind')} "
            f"n={key.get('size')} skew={skew} "
            f"{key.get('build')} elems={key.get('elements')} "
            f"seed={key.get('seed')}")


def point_index(payload: dict) -> dict:
    """Map canonical key-string -> point record, for compare joins.
    Raises ValueError when two records share a key: the second would
    replace the first and a point would go unchecked."""
    index: dict[str, dict] = {}
    position: dict[str, int] = {}
    for i, record in enumerate(payload["points"]):
        key = _key_string(record["key"])
        if key in index:
            raise ValueError(
                f"duplicate BENCH key: points #{position[key]} and #{i} are "
                f"both {key_label(record['key'])} "
                f"(variant {record['key'].get('variant')})")
        index[key], position[key] = record, i
    return index
