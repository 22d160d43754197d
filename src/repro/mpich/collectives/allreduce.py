"""All-reduce as reduce-to-zero plus broadcast (the MPICH 1.2.x approach
for general communicator sizes).

On the AB build with the pipeline subsystem armed (repro.pipeline),
eligible messages take the Träff-style pipelined path instead: the root
broadcasts each segment as soon as its fold completes, overlapping the
reduce of later segments with the broadcast of earlier ones.  On the
default build the plain composition below already pipelines, because both
``reduce`` and ``bcast`` segment internally when armed.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from ..communicator import Communicator
from ..datatypes import from_array
from ..operations import Op


def allreduce_reduce_bcast(rank, sendbuf: np.ndarray, op: Op,
                           comm: Communicator) -> Generator:
    """Reduce to comm rank 0, then broadcast; every rank returns the total."""
    ab = rank.ab_engine
    segments = ab.route(sendbuf, comm.size) if ab is not None else None
    if segments:
        result = yield from ab.pipeline.allreduce(sendbuf, op, comm,
                                                  segments)
        return result

    result = yield from rank.reduce(sendbuf, op=op, root=0, comm=comm)
    me = comm.rank_of_world(rank.rank)
    if me == 0:
        out = yield from rank.bcast(result, root=0, comm=comm)
    else:
        out = yield from rank.bcast(None, root=0, comm=comm,
                                    count=sendbuf.size,
                                    dtype=from_array(sendbuf))
        out = out.reshape(sendbuf.shape)
    return out
