"""Deterministic, named random-number streams.

Every stochastic element of the simulation (per-node skew draws, OS-noise
arrivals, benchmark shuffles) pulls from its own named stream so that adding
a new consumer of randomness never perturbs existing ones.  Stream seeds are
derived from the master seed and the stream name with CRC32 — *not* Python's
``hash()``, which is salted per interpreter run and would break determinism.
"""

from __future__ import annotations

import zlib

import numpy as np


class RngStreams:
    """Factory of independent, reproducible ``numpy`` generators."""

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same ``(seed, name)`` pair always yields an identical sequence.
        """
        gen = self._cache.get(name)
        if gen is None:
            key = zlib.crc32(name.encode("utf-8"))
            # The one sanctioned use of numpy.random in simulation code:
            # RngStreams *is* the determinism layer every other module is
            # required to go through, and both calls are fully seeded.
            seq = np.random.SeedSequence([self.seed & 0xFFFFFFFF, key])  # simlint: ignore[SIM002]
            gen = np.random.default_rng(seq)  # simlint: ignore[SIM002]
            self._cache[name] = gen
        return gen

    def node_stream(self, purpose: str, node_id: int) -> np.random.Generator:
        """Per-node stream, e.g. ``node_stream('os_noise', 7)``."""
        return self.stream(f"{purpose}/{node_id}")
