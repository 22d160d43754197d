"""Per-rank MPI library instance.

:class:`MpiRank` is what "the MPICH library linked into the process on node
i" is in the real system: it owns the rank's progress engine and matching
state and exposes blocking/non-blocking point-to-point plus the collectives.
All communication methods are generator coroutines (drive them with
``yield from`` inside a simulated process).

Two *builds* exist, mirroring the paper's experimental setup:

* ``MpiBuild.DEFAULT`` — unmodified MPICH-over-GM semantics;
* ``MpiBuild.AB`` — the application-bypass build: an
  :class:`~repro.core.engine.AbEngine` is the progress engine's
  pre-processing hook and takes over eligible ``MPI_Reduce`` calls.
  The AB build pays the paper's infrastructure overheads (per-packet hook
  check, per-call decision logic) even when an operation falls back to the
  default path — which is exactly why the paper's Fig. 8(b) shows factors
  below 1.0 at small node counts.

A rank program receives its ``MpiRank`` and is a generator::

    def program(mpi):
        yield from mpi.barrier()
        data = np.full(4, float(mpi.rank))
        result = yield from mpi.reduce(data, op=SUM, root=0)
        yield from mpi.compute(250.0)   # overlap-able application work
        return result
"""

from __future__ import annotations

import enum
from typing import Generator, Optional

import numpy as np

from ..config import check_name
from ..sim.process import Compute, Ledger
from .communicator import Communicator
from .message import ANY_TAG, TAG_BARRIER, AbHeader
from .operations import SUM, Op
from .progress import ProgressEngine
from .requests import Request, Status

_TOKEN = np.empty(0, dtype=np.uint8)


class MpiBuild(enum.Enum):
    DEFAULT = "default"
    AB = "ab"


#: The one build vocabulary — ``SweepPoint.build``, ``JobSpec.build`` and
#: every build axis — with the non-bypass baseline first.
BUILD_TAGS = {"nab": MpiBuild.DEFAULT, "ab": MpiBuild.AB}


def build_from_tag(tag: str) -> MpiBuild:
    check_name("build tag", tag, BUILD_TAGS)
    return BUILD_TAGS[tag]


class MpiRank:
    """One rank's MPI library state."""

    def __init__(self, node, comm_world: Communicator,
                 build: MpiBuild = MpiBuild.DEFAULT):
        self.node = node
        self.sim = node.sim
        self.costs = node.costs
        self.rank = node.id
        self.comm_world = comm_world
        self.build = build
        self.progress = ProgressEngine(node)
        #: The application-bypass engine; None on the DEFAULT build.
        self.ab_engine = None
        if build is MpiBuild.AB:
            from ..core.engine import AbEngine
            self.ab_engine = self.progress.hook = AbEngine(self)

    def tree_shape_for(self, nbytes: int):
        """Per-message tree shape ("auto" configs consult the tuning table)."""
        return self.node.tree_shape_for(nbytes)

    # ------------------------------------------------------------------
    # the application side of the process
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self.comm_world.size

    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self.sim.now

    def rng_stream(self, purpose: str) -> np.random.Generator:
        """Deterministic per-rank random stream, seeded from the cluster
        seed and ``(purpose, rank)``: adding a consumer never perturbs
        existing streams."""
        return self.node.rng.node_stream(purpose, self.rank)

    def compute(self, duration_us: float, category: str = "app") -> Generator:
        """Interruptible application busy-loop (paper's delay loops).

        NIC signals preempt it; the asynchronous reduction work then extends
        the loop's wall-clock span by exactly its CPU cost, which is how the
        paper's measurement methodology captures bypassed processing.
        """
        if duration_us > 0.0:
            yield Compute(duration_us, category)

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def isend(self, data: np.ndarray, dest: int, tag: int = 0,
              comm: Optional[Communicator] = None, *,
              _context: Optional[int] = None,
              _ab: Optional[AbHeader] = None) -> Generator:
        """Non-blocking send; returns the send :class:`Request`."""
        comm = comm or self.comm_world
        world_dest = comm.world_rank(dest)
        context = comm.pt2pt_context if _context is None else _context
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        request = self.progress.start_send(np.asarray(data), world_dest, tag,
                                           context, ledger, ab=_ab)
        yield ledger
        return request

    def send(self, data: np.ndarray, dest: int, tag: int = 0,
             comm: Optional[Communicator] = None, *,
             _context: Optional[int] = None) -> Generator:
        """Blocking send (completes when the transfer is locally done)."""
        request = yield from self.isend(data, dest, tag, comm,
                                        _context=_context)
        if not request.done:  # an eager send is complete on return
            yield from self.progress.wait(request)
        return request.status

    def irecv(self, buffer: Optional[np.ndarray], source: int,
              tag: int = ANY_TAG, comm: Optional[Communicator] = None, *,
              _context: Optional[int] = None) -> Generator:
        """Non-blocking receive into ``buffer``; returns the request."""
        comm = comm or self.comm_world
        world_source = comm.world_rank(source) if source >= 0 else source
        context = comm.pt2pt_context if _context is None else _context
        ledger = Ledger()
        ledger.charge(self.costs.call_overhead_us, "mpi")
        request = self.progress.post_recv(buffer, world_source, tag, context,
                                          ledger)
        yield ledger
        return request

    def recv(self, buffer: Optional[np.ndarray], source: int,
             tag: int = ANY_TAG, comm: Optional[Communicator] = None, *,
             _context: Optional[int] = None) -> Generator:
        """Blocking receive; returns the :class:`Status`."""
        request = yield from self.irecv(buffer, source, tag, comm,
                                        _context=_context)
        if not request.done:  # else it matched an unexpected message
            yield from self.progress.wait(request)
        return request.status

    def wait(self, request: Request) -> Generator:
        """Block until a previously returned request completes."""
        return self.progress.wait(request)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def reduce(self, sendbuf: np.ndarray, op: Op = SUM, root: int = 0,
               comm: Optional[Communicator] = None,
               recvbuf: Optional[np.ndarray] = None) -> Generator:
        """``MPI_Reduce``.  Returns the result array at the root, else None.

        On the AB build, eligible calls run the paper's application-bypass
        protocol; root/leaf ranks and messages beyond the eager limit fall
        back to the default implementation (paper Sec. V-B).
        """
        from .collectives.reduce import reduce_nab
        comm = comm or self.comm_world
        sendbuf = np.asarray(sendbuf)
        if self.ab_engine is not None:
            return self.ab_engine.reduce(sendbuf, op, root, comm, recvbuf)
        return reduce_nab(self, sendbuf, op, root, comm, recvbuf)

    def bcast(self, data: Optional[np.ndarray], root: int = 0,
              comm: Optional[Communicator] = None,
              count: Optional[int] = None,
              dtype=None) -> Generator:
        """``MPI_Bcast``; returns the broadcast array on every rank."""
        from .collectives.bcast import bcast_binomial
        return bcast_binomial(self, data, root, comm or self.comm_world,
                              count=count, dtype=dtype)

    def barrier(self, comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Barrier``: this rank's dissemination steps (interned per
        communicator) walked with zero-byte tokens, on their own tag: an AB
        rank leaves ``MPI_Reduce`` before forwarding its partial, which a
        reduce-tagged token could overtake into the root's receive."""
        from ..schedule.lower import barrier_rank_steps
        from .collectives.walk import walk_steps
        comm = comm or self.comm_world
        me = comm.rank_of_world(self.rank)
        key = (barrier_rank_steps, me)
        steps = comm.interned_steps.get(key)
        if steps is None:
            steps = comm.interned_steps[key] = tuple(
                barrier_rank_steps(me, comm.size))
        return walk_steps(self, comm, steps, _TOKEN, tag=TAG_BARRIER)

    def allreduce(self, sendbuf: np.ndarray, op: Op = SUM,
                  comm: Optional[Communicator] = None) -> Generator:
        """``MPI_Allreduce`` (reduce-to-0 + broadcast, MPICH 1.2.x style)."""
        from .collectives.allreduce import allreduce_reduce_bcast
        return allreduce_reduce_bcast(self, np.asarray(sendbuf), op,
                                      comm or self.comm_world)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiRank {self.rank} build={self.build.value}>"
