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
from .skew import SkewModel, conservative_latency_estimate


def nicred_cpu_util(config: ClusterConfig, *, elements: int,
                    max_skew_us: float, iterations: int,
                    warmup: int = 3) -> float:
    """Paper-protocol CPU utilization with NIC-based reduction."""
    size = config.size
    catchup = (max_skew_us + conservative_latency_estimate(size, elements) +
               0.1 * elements * size)  # LANai ALU serialization headroom
    total = warmup + iterations
    expected = size * (size + 1) / 2

    def program(mpi):
        nicred = NicReduce(mpi.mpi)
        nicred.register_comm(mpi.comm_world)
        skew_model = SkewModel(mpi.node.rng, config.noise, max_skew_us)
        data = np.full(elements, float(mpi.rank + 1))
        samples = []
        for it in range(total):
            yield from mpi.barrier()
            t0 = mpi.now
            skew = skew_model.skew_delay(mpi.rank, it)
            noise = skew_model.noise_delay(mpi.rank, it)
            yield from mpi.compute(skew + noise)
            result = yield from nicred.reduce(data, SUM, 0, mpi.comm_world)
            if mpi.rank == 0:
                assert np.allclose(result, expected)
            yield from mpi.compute(catchup)
            if it >= warmup:
                samples.append((mpi.now - t0) - skew - catchup)
        return samples

    out = run_program(config, program, build=MpiBuild.DEFAULT)
    return float(np.mean([np.mean(s) for s in out.results]))


def nicred_latency(config: ClusterConfig, *, elements: int,
                   iterations: int, warmup: int = 3) -> float:
    """Last-node-to-notification reduction latency with NIC combining."""
    size = config.size
    last = config_tree_shape(
        config, elements * np.dtype(np.float64).itemsize).deepest_rel(size)
    token = np.zeros(1)
    total = warmup + iterations

    def program(mpi):
        nicred = NicReduce(mpi.mpi)
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
