"""Collective algorithms over the binomial tree and dissemination patterns."""

from .allreduce import allreduce_reduce_bcast
from .barrier import barrier_dissemination
from .bcast import bcast_binomial
from .reduce import reduce_nab

__all__ = [
    "reduce_nab",
    "bcast_binomial",
    "barrier_dissemination",
    "allreduce_reduce_bcast",
]
