"""The arrival trace: per-(iteration, rank) pre-collective delays.

An :class:`ArrivalTrace` is the frozen, JSON-round-trippable product of
every arrival-pattern generator (:mod:`repro.workload.patterns`) and the
input of ``pattern="trace_replay"`` — record a trace from one run (or a
real cluster log), ship it as JSON, replay it bit-exactly anywhere.  The
JSON form is byte-stable: serializing, parsing and re-serializing yields
the identical byte string, so traces can be content-addressed and diffed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..config import RecordError, decode, encode, loads, typed
from ..errors import ReproError

TRACE_SCHEMA = 1


class WorkloadError(ReproError):
    """Error constructing or replaying an arrival trace."""


@dataclass(frozen=True)
class ArrivalTrace:
    """Immutable ``[iteration][rank]`` matrix of arrival delays (us)."""

    delays: tuple[tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "delays",
            tuple(tuple(float(d) for d in row) for row in self.delays))
        if not self.delays:
            raise WorkloadError("an arrival trace needs at least one row")
        width = len(self.delays[0])
        for it, row in enumerate(self.delays):
            if not row:
                raise WorkloadError(f"trace row {it} is empty")
            if len(row) != width:
                raise WorkloadError(
                    f"trace row {it} has {len(row)} rank(s), row 0 has "
                    f"{width} — the trace must be rectangular")
            for rank, d in enumerate(row):
                if not (d >= 0.0):  # rejects negatives and NaN alike
                    raise WorkloadError(
                        f"trace[{it}][{rank}] = {d!r} is not a "
                        f"non-negative delay")

    # ------------------------------------------------------------------
    # shape

    @property
    def iterations(self) -> int:
        return len(self.delays)

    @property
    def nranks(self) -> int:
        return len(self.delays[0])

    def delay(self, rank: int, iteration: int) -> float:
        """The delay for ``rank`` at ``iteration`` (rows cycle)."""
        return self.delays[iteration % self.iterations][rank]

    # ------------------------------------------------------------------
    # the arrival-order oracle

    def order(self, iteration: int) -> tuple:
        """Ranks sorted by arrival (earliest first; ties by rank id).

        This is the oracle the PAP-aware lowerings consume: a pure
        function of the trace, so every rank derives the identical
        schedule without any extra communication.
        """
        row = self.delays[iteration % self.iterations]
        return tuple(sorted(range(len(row)), key=lambda r: (row[r], r)))

    def spread(self, iteration: int) -> float:
        """max - min arrival delay for one iteration."""
        row = self.delays[iteration % self.iterations]
        return max(row) - min(row)

    # ------------------------------------------------------------------
    # JSON round trip (byte-stable)

    def to_dict(self) -> dict:
        return {"schema": TRACE_SCHEMA, "nranks": self.nranks,
                **encode(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ArrivalTrace":
        try:
            trace = decode(cls, d, "trace", schema=TRACE_SCHEMA,
                           own=("nranks",))
            nranks = typed(int)("nranks", d.get("nranks"))
        except RecordError as exc:
            raise WorkloadError(str(exc)) from None
        if nranks != trace.nranks:
            raise WorkloadError(
                f"trace header says nranks={nranks} but rows have "
                f"{trace.nranks}")
        return trace

    def to_json(self, *, indent: int | None = None) -> str:
        # sort_keys + repr-based float formatting make the encoding a pure
        # function of the value: to_json(from_json(s)) == s.
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArrivalTrace":
        return cls.from_dict(loads(text, "trace"))
