"""PMPI-style profiling wrapper for rank contexts.

Wraps an :class:`~repro.runtime.context.MpiContext` and records, per MPI
operation, the call count, total blocked wall-time and bytes moved — the
moral equivalent of the PMPI interposition layer the 2003-era profiling
studies (e.g. Moody et al., the paper's ref. [9]) used to discover that
95% of real-application reductions carry three or fewer elements.

Usage::

    def program(mpi):
        prof = ProfiledMpi(mpi)
        yield from prof.reduce(data, op=SUM, root=0)
        yield from prof.barrier()
        return prof.report()

Only the communication operations are interposed; ``compute``/``work``
pass straight through (they are the application, not MPI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from ..mpich.operations import SUM, Op
from .context import MpiContext


@dataclass
class OpProfile:
    """Accumulated numbers for one MPI entry point."""

    calls: int = 0
    blocked_us: float = 0.0
    bytes_moved: int = 0
    max_call_us: float = 0.0
    #: Calls whose payload the pipeline config would segment (>= 2 chunks).
    segmented_calls: int = 0
    #: Total segments across all segmented calls.
    segments_planned: int = 0
    #: Per-segment byte sizes of the most recent segmented call.
    segment_bytes: list = field(default_factory=list)

    def record(self, elapsed_us: float, nbytes: int) -> None:
        self.calls += 1
        self.blocked_us += elapsed_us
        self.bytes_moved += nbytes
        self.max_call_us = max(self.max_call_us, elapsed_us)

    def record_segments(self, seg_bytes: list) -> None:
        self.segmented_calls += 1
        self.segments_planned += len(seg_bytes)
        self.segment_bytes = list(seg_bytes)

    @property
    def mean_call_us(self) -> float:
        return self.blocked_us / self.calls if self.calls else 0.0

    @property
    def mean_segments_per_call(self) -> float:
        return (self.segments_planned / self.segmented_calls
                if self.segmented_calls else 0.0)


@dataclass
class MpiProfile:
    """Per-rank profile across all interposed operations."""

    rank: int
    ops: dict[str, OpProfile] = field(default_factory=dict)

    def op(self, name: str) -> OpProfile:
        profile = self.ops.get(name)
        if profile is None:
            profile = self.ops[name] = OpProfile()
        return profile

    @property
    def total_blocked_us(self) -> float:
        return sum(p.blocked_us for p in self.ops.values())

    @property
    def total_calls(self) -> int:
        return sum(p.calls for p in self.ops.values())

    def render(self) -> str:
        lines = [f"MPI profile, rank {self.rank}: "
                 f"{self.total_calls} calls, "
                 f"{self.total_blocked_us:.1f} us blocked"]
        for name in sorted(self.ops):
            p = self.ops[name]
            line = (
                f"  {name:<10} calls={p.calls:<5} blocked={p.blocked_us:9.1f}us "
                f"mean={p.mean_call_us:7.2f}us max={p.max_call_us:7.2f}us "
                f"bytes={p.bytes_moved}")
            if p.segmented_calls:
                line += (f" segs={p.segments_planned}"
                         f" ({p.mean_segments_per_call:.1f}/call)")
            lines.append(line)
        return "\n".join(lines)


def _nbytes(data) -> int:
    if data is None:
        return 0
    return np.asarray(data).nbytes


class ProfiledMpi:
    """Interposition wrapper around one rank's :class:`MpiContext`."""

    def __init__(self, mpi: MpiContext):
        self.mpi = mpi
        self.profile = MpiProfile(mpi.rank)

    # -- passthroughs ------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.mpi.rank

    @property
    def size(self) -> int:
        return self.mpi.size

    @property
    def now(self) -> float:
        return self.mpi.now

    def compute(self, duration_us: float, category: str = "app") -> Generator:
        yield from self.mpi.compute(duration_us, category)

    def work(self, duration_us: float, category: str = "app") -> Generator:
        yield from self.mpi.work(duration_us, category)

    # -- interposed operations ----------------------------------------------
    def _timed(self, name: str, gen, nbytes: int,
               segmented=None) -> Generator:
        t0 = self.mpi.now
        result = yield from gen
        profile = self.profile.op(name)
        profile.record(self.mpi.now - t0, nbytes)
        if segmented is not None:
            profile.record_segments(segmented)
        return result

    def _segment_plan(self, data):
        """Per-segment byte sizes the pipeline config assigns to ``data``,
        or None when segmentation is disarmed / would not engage.  Uses the
        pure planning function, so profiling never perturbs the run."""
        if data is None:
            return None
        params = self.mpi.node.config.pipeline
        if not params.armed:
            return None
        from ..pipeline import plan_segments
        plan = plan_segments(params, np.asarray(data))
        if plan is None:
            return None
        return [s.nbytes for s in plan]

    def send(self, data, dest: int, tag: int = 0, comm=None) -> Generator:
        result = yield from self._timed(
            "send", self.mpi.send(data, dest, tag, comm), _nbytes(data))
        return result

    def recv(self, buffer, source: int, tag: int = -1, comm=None) -> Generator:
        result = yield from self._timed(
            "recv", self.mpi.recv(buffer, source, tag, comm),
            _nbytes(buffer))
        return result

    def reduce(self, sendbuf, op: Op = SUM, root: int = 0, comm=None,
               recvbuf=None) -> Generator:
        result = yield from self._timed(
            "reduce", self.mpi.reduce(sendbuf, op, root, comm, recvbuf),
            _nbytes(sendbuf), segmented=self._segment_plan(sendbuf))
        return result

    def bcast(self, data, root: int = 0, comm=None, count=None,
              dtype=None) -> Generator:
        result = yield from self._timed(
            "bcast", self.mpi.bcast(data, root, comm, count, dtype),
            _nbytes(data), segmented=self._segment_plan(data))
        return result

    def barrier(self, comm=None) -> Generator:
        yield from self._timed("barrier", self.mpi.barrier(comm), 0)

    def allreduce(self, sendbuf, op: Op = SUM, comm=None) -> Generator:
        result = yield from self._timed(
            "allreduce", self.mpi.allreduce(sendbuf, op, comm),
            _nbytes(sendbuf), segmented=self._segment_plan(sendbuf))
        return result

    def gather(self, senddata, root: int = 0, comm=None) -> Generator:
        result = yield from self._timed(
            "gather", self.mpi.gather(senddata, root, comm),
            _nbytes(senddata))
        return result

    def report(self) -> MpiProfile:
        return self.profile
