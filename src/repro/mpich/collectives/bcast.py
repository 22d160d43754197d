"""Tree broadcast (binomial is the default MPICH algorithm).

Each non-root rank receives from its tree parent, then forwards to its
children in *reverse* combine order (for the binomial shape that is
decreasing-mask order: deepest subtree first, which maximizes pipelining
down the tree).  The tree comes from the rank's configured
:class:`repro.topo.TreeShape`; the default binomial shape reproduces the
original mask-walk algorithm bit for bit.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

import numpy as np

from ...errors import MpiError
from ...pipeline.segmenter import plan_segments
from ...schedule.lower import bcast_rank_steps
from ...sim.process import Ledger
from ..communicator import Communicator
from ..datatypes import DOUBLE, Datatype
from .walk import own_steps, walk_steps


def bcast_binomial(rank, data: Optional[np.ndarray], root: int,
                   comm: Communicator, *, count: Optional[int] = None,
                   dtype: Optional[Datatype] = None,
                   steps: Optional[Sequence] = None) -> Generator:
    """Broadcast ``data`` from ``root``; every rank returns the array.

    Non-root ranks either pass a pre-sized ``data`` buffer or give
    ``count`` (and optionally ``dtype``, default double) for allocation.
    This rank walks ``steps``, or, given none, the steps
    :func:`~.walk.own_steps` derives from the configured tree.

    With the pipeline armed (repro.pipeline) the steps are seg-major:
    receive, then forward, one segment at a time — a node's children start
    receiving segment k while the node still waits for k+1.  The plan
    depends only on (config, count, itemsize), so every rank segments
    identically.
    """
    size = comm.size
    me = comm.rank_of_world(rank.rank)
    if not (0 <= root < size):
        raise ValueError(f"root {root} outside communicator of size {size}")

    costs = rank.costs
    ledger = Ledger()
    ledger.charge(costs.call_overhead_us, "mpi")
    ledger.charge(costs.tree_setup_us, "mpi")

    if me == root:
        if data is None:
            raise MpiError("bcast root must supply data")
        buf = np.array(data, copy=True)
    elif data is not None:
        buf = np.asarray(data)
    elif count is not None:
        buf = (dtype or DOUBLE).buffer(count)
    else:
        raise MpiError("non-root bcast needs a buffer or a count")
    segments = plan_segments(rank.node.pipeline_params_for(buf.nbytes), buf)
    steps = own_steps(rank, comm, root, buf.nbytes, segments,
                      bcast_rank_steps, steps)
    # A non-contiguous user buffer is staged through a contiguous copy.
    contiguous = buf.flags.c_contiguous
    flat = (buf if contiguous else np.ascontiguousarray(buf)).reshape(-1)
    yield from walk_steps(rank, comm, steps, flat, segments=segments,
                          ledger=ledger)
    if not contiguous:
        buf[...] = flat.reshape(buf.shape)
    return buf
