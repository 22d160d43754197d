"""Default (non-application-bypass) tree reduction.

This is the paper's baseline: every rank enters ``MPI_Reduce``; internal
nodes perform a *blocking* receive from each child in combine order,
combining as results arrive, then send the accumulated partial result to
their parent.  Any time spent waiting for a late child is spent spinning
the progress engine — CPU time the application cannot use (paper Fig. 2a).

The tree comes from the rank's configured :class:`repro.topo.TreeShape`
(``MpiParams.tree_shape``); the default binomial shape reproduces the
original MPICH algorithm bit for bit.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, Sequence

import numpy as np

from ...pipeline.segmenter import plan_segments
from ...schedule.ir import FoldStep, SendStep
from ...schedule.lower import reduce_rank_steps
from ...sim.process import Ledger
from ..communicator import Communicator
from ..operations import Op
from .walk import own_steps, walk_steps


def reduce_nab(rank, sendbuf: np.ndarray, op: Op, root: int,
               comm: Communicator,
               recvbuf: Optional[np.ndarray] = None, *,
               steps: Optional[Sequence] = None) -> Generator:
    """Blocking tree reduction; returns the result array at the root.

    This rank walks ``steps``, or, given none, the steps
    :func:`~.walk.own_steps` derives from the configured tree.

    With the pipeline armed (repro.pipeline) the steps are seg-major:
    internal nodes receive, fold and forward segment *k* before touching
    segment *k+1*, so the message streams through the tree instead of
    being staged whole at every level.  Per element the fold order (own
    contribution, then children in combine order) is that of the whole
    message, so results match bit for bit.
    """
    size = comm.size
    if not (0 <= root < size):
        raise ValueError(f"root {root} outside communicator of size {size}")

    costs = rank.costs
    ledger = Ledger()
    ledger.charge(costs.call_overhead_us, "mpi")

    if size == 1:
        result = _finish_root(sendbuf, recvbuf)
        yield ledger
        return result

    ledger.charge(costs.tree_setup_us, "mpi")
    sendbuf = np.asarray(sendbuf)
    segments = plan_segments(rank.node.pipeline_params_for(sendbuf.nbytes),
                             sendbuf)
    steps = own_steps(rank, comm, root, sendbuf.nbytes, segments,
                      reduce_rank_steps, steps)
    result = yield from reduce_steps(rank, comm, steps, sendbuf, op, recvbuf,
                                     ledger, segments=segments)
    return result


def reduce_steps(rank, comm: Communicator, steps: Sequence,
                 sendbuf: np.ndarray, op: Op,
                 recvbuf: Optional[np.ndarray], ledger: Ledger, *,
                 segments=None,
                 on_fold: Optional[Callable] = None) -> Generator:
    """Run one rank's host-side reduce ``steps`` after a prologue ``ledger``.

    A rank that folds accumulates into a private copy (MPICH copies the
    send buffer so the combine can run in place), billed to ``ledger``; a
    rank that only sends streams straight from the application buffer.
    Returns the result where no step sends it on (the root), else None.
    """
    acc = np.ascontiguousarray(sendbuf).reshape(-1)
    if any(type(s) is FoldStep for s in steps):
        acc = acc.copy()
        ledger.charge(rank.costs.copy_us(acc.nbytes), "copy")
    yield from walk_steps(rank, comm, steps, acc, op=op, segments=segments,
                          ledger=ledger, on_fold=on_fold)
    if any(type(s) is SendStep for s in steps):
        return None
    return _finish_root(acc.reshape(np.shape(sendbuf)), recvbuf)


def _finish_root(acc: np.ndarray, recvbuf: Optional[np.ndarray]) -> np.ndarray:
    if recvbuf is not None:
        recvbuf[...] = acc.reshape(recvbuf.shape)
        return recvbuf
    return np.array(acc, copy=True)
