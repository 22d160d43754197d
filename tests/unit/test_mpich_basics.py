"""Unit tests for MPI datatypes, operations, envelopes and requests."""

import numpy as np
import pytest

from repro.mpich.datatypes import (BYTE, DOUBLE, FLOAT, INT, LONG, Datatype,
                                   from_array)
from repro.mpich.message import (ANY_SOURCE, ANY_TAG, AbHeader, Envelope,
                                 TransferKind)
from repro.mpich.operations import (BAND, BOR, BXOR, MAX, MIN, PROD, SUM,
                                    user_op)
from repro.mpich.requests import Request, Status


# ---------------------------------------------------------------------------
# datatypes
# ---------------------------------------------------------------------------

def test_datatype_buffers():
    buf = DOUBLE.buffer(4)
    assert buf.dtype == np.float64 and buf.shape == (4,)
    assert INT.buffer(3).dtype == np.int32


def test_from_array_roundtrip():
    for dtype in (DOUBLE, FLOAT, INT, LONG, BYTE):
        arr = dtype.buffer(2)
        assert from_array(arr) is dtype


def test_from_array_rejects_unknown():
    with pytest.raises(TypeError):
        from_array(np.zeros(2, dtype=np.complex128))


def test_double_is_eight_bytes():
    """The paper's 'double-word elements' are 8-byte doubles."""
    assert DOUBLE.nbytes == 8


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def test_builtin_ops_apply_in_place():
    acc = np.array([1.0, 2.0])
    SUM.apply(acc, np.array([3.0, 4.0]))
    assert (acc == [4.0, 6.0]).all()
    PROD.apply(acc, np.array([2.0, 0.5]))
    assert (acc == [8.0, 3.0]).all()
    MIN.apply(acc, np.array([5.0, 1.0]))
    assert (acc == [5.0, 1.0]).all()
    MAX.apply(acc, np.array([4.0, 9.0]))
    assert (acc == [5.0, 9.0]).all()


def test_bitwise_ops():
    acc = np.array([0b1100], dtype=np.int32)
    BAND.apply(acc, np.array([0b1010], dtype=np.int32))
    assert acc[0] == 0b1000
    BOR.apply(acc, np.array([0b0001], dtype=np.int32))
    assert acc[0] == 0b1001
    BXOR.apply(acc, np.array([0b1001], dtype=np.int32))
    assert acc[0] == 0


def test_op_shape_mismatch():
    with pytest.raises(ValueError):
        SUM.apply(np.zeros(2), np.zeros(3))


def test_user_op():
    avg2 = user_op("avg2", lambda a, b: (a + b) / 2)
    acc = np.array([2.0, 4.0])
    avg2.apply(acc, np.array([4.0, 0.0]))
    assert (acc == [3.0, 2.0]).all()


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------

def make_env(src=1, tag=5, ctx=100):
    return Envelope(src=src, dst=0, tag=tag, context_id=ctx,
                    kind=TransferKind.EAGER, data=np.zeros(1), nbytes=8)


def test_envelope_matching_exact():
    env = make_env()
    assert env.matches(1, 5, 100)
    assert not env.matches(2, 5, 100)
    assert not env.matches(1, 6, 100)
    assert not env.matches(1, 5, 102)


def test_envelope_wildcards():
    env = make_env()
    assert env.matches(ANY_SOURCE, 5, 100)
    assert env.matches(1, ANY_TAG, 100)
    assert env.matches(ANY_SOURCE, ANY_TAG, 100)
    # context id never wildcards
    assert not env.matches(ANY_SOURCE, ANY_TAG, 101)


def test_envelope_sequence_monotonic():
    assert make_env().seq < make_env().seq


def test_ab_header_fields():
    h = AbHeader(root=3, instance=7)
    assert (h.root, h.instance, h.kind) == (3, 7, "reduce")


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def test_request_completes_once():
    req = Request("recv")
    assert not req.done
    req.complete(Status(2, 9, 64))
    assert req.done
    assert req.status == Status(2, 9, 64)
    with pytest.raises(RuntimeError):
        req.complete(Status(2, 9, 64))


def test_request_completion_trigger():
    req = Request("send")
    seen = []
    req.completion.add_waiter(seen.append)
    status = Status(0, 0, 0)
    req.complete(status)
    assert seen == [status]


def test_request_completion_asked_for_after_the_fact():
    """The trigger is built on first use; built late it is already fired."""
    req = Request("send")
    status = Status(3, 1, 32)
    req.complete(status)
    assert req.completion.fired and req.completion.value is status
    seen = []
    req.completion.add_waiter(seen.append)
    assert seen == [status]
    assert req.completion is req.completion     # one trigger per request


def test_request_kind_validation():
    with pytest.raises(ValueError):
        Request("other")
