"""MPI reduction operations.

Each :class:`Op` wraps a numpy binary ufunc applied element-wise,
accumulating in place (``acc = op(acc, operand)``).  The paper's workloads
are SUM over doubles, but the implementation and tests cover the standard
commutative set plus user-defined operations.

The binomial-tree algorithms combine children in *mask order* (the MPICH
convention); for non-commutative user ops that order is part of the
contract, and the property tests pin it down.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class Op:
    """A reduction operator."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[..., None]):
        self.name = name
        #: ``fn(a, b, out=)``, the calling convention of a numpy binary
        #: ufunc — every built-in *is* one, so ``apply`` folds with a
        #: single C-level call (the fold kernel is the inner loop of every
        #: segmented reduce: a Python frame per segment is measurable at
        #: large scale).
        self.fn = fn

    def apply(self, acc: np.ndarray, operand: np.ndarray) -> None:
        """In-place ``acc = acc (op) operand``."""
        if acc.shape != operand.shape:
            raise ValueError(
                f"operand shape {operand.shape} != accumulator {acc.shape}")
        self.fn(acc, operand, out=acc)

    def __repr__(self) -> str:
        return f"<Op {self.name}>"


SUM = Op("sum", np.add)
PROD = Op("prod", np.multiply)
MIN = Op("min", np.minimum)
MAX = Op("max", np.maximum)
BAND = Op("band", np.bitwise_and)
BOR = Op("bor", np.bitwise_or)
BXOR = Op("bxor", np.bitwise_xor)

BUILTIN_OPS = (SUM, PROD, MIN, MAX)


def user_op(name: str,
            fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Op:
    """Wrap a plain ``f(a, b) -> array`` into an :class:`Op`."""

    def apply(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        out[...] = fn(a, b)

    return Op(name, apply)
