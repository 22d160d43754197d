"""Microbenchmark protocols for the NIC-based reduction extension.

Same measurement methodology as :mod:`repro.bench.cpu_util` and
:mod:`repro.bench.latency`, with :class:`repro.core.nic_reduce.NicReduce`
standing in for ``MPI_Reduce``.  Used by the extension benchmark and the
``python -m repro.experiments extensions`` driver.
"""

from __future__ import annotations

import numpy as np

from ..config import ClusterConfig
from ..core.nic_reduce import NicReduce
from ..mpich.message import TAG_NOTIFY
from ..mpich.operations import SUM
from ..mpich.rank import MpiBuild
from ..runtime.program import run_program
from ..schedule.table import config_tree_shape
from .cpu_util import cpu_util_benchmark
from .skew import conservative_latency_estimate


def nic_reduce(mpi):
    """:func:`cpu_util_benchmark`'s collective: NIC-based reduce to rank 0."""
    nicred = NicReduce(mpi)
    nicred.register_comm(mpi.comm_world)
    return lambda data: nicred.reduce(data, SUM, 0, mpi.comm_world)


def nicred_cpu_util(config: ClusterConfig, *, elements: int,
                    max_skew_us: float, iterations: int,
                    warmup: int = 3) -> float:
    """Paper-protocol CPU utilization with NIC-based reduction."""
    size = config.size
    catchup = (max_skew_us + conservative_latency_estimate(size, elements) +
               0.1 * elements * size)  # LANai ALU serialization headroom
    result = cpu_util_benchmark(
        config, MpiBuild.DEFAULT, elements=elements, max_skew_us=max_skew_us,
        iterations=iterations, warmup=warmup, catchup_us=catchup,
        collective=nic_reduce)
    return float(result.per_node_util_us.mean())


def nicred_latency(config: ClusterConfig, *, elements: int,
                   iterations: int, warmup: int = 3) -> float:
    """Last-node-to-notification reduction latency with NIC combining.

    Not :func:`~repro.bench.latency.latency_benchmark` with another
    collective: this one times without the noise compute and without the
    one-way subtraction, so folding it in would move the numbers.
    """
    size = config.size
    last = config_tree_shape(
        config, elements * np.dtype(np.float64).itemsize).deepest_rel(size)
    token = np.zeros(1)
    total = warmup + iterations

    def program(mpi):
        nicred = NicReduce(mpi)
        nicred.register_comm(mpi.comm_world)
        data = np.full(elements, 1.0)
        buf = np.zeros(1)
        samples = []
        for it in range(total):
            yield from mpi.barrier()
            t0 = mpi.now
            yield from nicred.reduce(data, SUM, 0, mpi.comm_world)
            if mpi.rank == 0:
                yield from mpi.send(token, last, tag=TAG_NOTIFY)
            if mpi.rank == last:
                yield from mpi.recv(buf, 0, tag=TAG_NOTIFY)
                if it >= warmup:
                    samples.append(mpi.now - t0)
        return samples if mpi.rank == last else None

    out = run_program(config, program, build=MpiBuild.DEFAULT)
    return float(np.mean(out.results[last]))
