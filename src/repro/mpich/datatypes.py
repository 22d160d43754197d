"""MPI datatypes (the small subset the reduction benchmarks exercise).

The paper reports message sizes in *double-word elements* — IEEE-754 doubles.
We keep a handful of basic types so the pt2pt layer and the property tests
can exercise more than one element size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Datatype:
    """An MPI basic datatype bound to its numpy representation."""

    name: str
    nbytes: int
    np_dtype: np.dtype

    def buffer(self, count: int) -> np.ndarray:
        """Allocate an uninitialized buffer of ``count`` elements."""
        return np.empty(count, dtype=self.np_dtype)


DOUBLE = Datatype("double", 8, np.dtype(np.float64))
FLOAT = Datatype("float", 4, np.dtype(np.float32))
INT = Datatype("int", 4, np.dtype(np.int32))
LONG = Datatype("long", 8, np.dtype(np.int64))
BYTE = Datatype("byte", 1, np.dtype(np.uint8))

_BY_DTYPE = {t.np_dtype: t for t in (DOUBLE, FLOAT, INT, LONG, BYTE)}


def from_array(array: np.ndarray) -> Datatype:
    """Infer the MPI datatype of a numpy array."""
    try:
        return _BY_DTYPE[array.dtype]
    except KeyError:
        raise TypeError(f"unsupported dtype for MPI transfer: {array.dtype}")
