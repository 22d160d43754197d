"""The host-side step walker (repro.mpich.collectives.walk) on schedules no
registered lowering emits."""

import numpy as np
import pytest

from repro.core.interpreter import ScheduleExecutionError, execute_schedule
from repro.errors import ProcessFailed
from repro.mpich.operations import SUM
from repro.schedule.ir import (BcastStep, FoldStep, RecvStep, Schedule,
                               SendStep, WaitStep)
from repro.schedule.lower import LOWERINGS
from conftest import run_ranks


def scheduled(schedule, make_data):
    def program(mpi):
        result = yield from execute_schedule(
            mpi, schedule, make_data(mpi.rank), SUM,
            comm=mpi.comm_world)
        return result
    return program


def test_hand_built_allreduce_matches_numpy_bit_exactly():
    """Reduce leg 3 -> 1, then 1 and 2 -> 0; the bcast leg follows a
    different tree (0 -> 3, then 3 -> 1 and 3 -> 2).  Nothing in
    LOWERINGS emits this; the walker only needs the steps."""
    schedule = Schedule("allreduce", "hand.built", 4, steps=(
        (RecvStep(1), FoldStep(1), RecvStep(2), FoldStep(2),
         BcastStep(3, "send")),
        (RecvStep(3), FoldStep(3), SendStep(0), BcastStep(3, "recv")),
        (SendStep(0), BcastStep(3, "recv")),
        (SendStep(1), BcastStep(0, "recv"), BcastStep(1, "send"),
         BcastStep(2, "send")),
    )).validate()
    assert schedule.lowering not in LOWERINGS

    def data(rank):
        return (np.arange(6, dtype=np.int64) * (rank + 1)
                + (np.int64(1) << 40) * rank).reshape(2, 3)

    # run_ranks builds the cluster under the suite's ASSERT-mode
    # invariant monitor (conftest), so a protocol break would raise.
    out = run_ranks(4, scheduled(schedule, data))
    assert out.cluster.monitor.checks > 0 and out.cluster.monitor.ok
    expected = np.sum([data(r) for r in range(4)], axis=0)
    for result in out.results:
        assert result.dtype == np.int64 and result.shape == (2, 3)
        assert np.array_equal(result, expected)


def test_step_the_host_cannot_walk_is_refused_in_one_line():
    """A WaitStep completes on the NIC; reaching the host walker it is
    refused with the step, the rank and the lowering named."""
    schedule = Schedule("reduce", "hand.built", 2, steps=(
        (WaitStep((1,)),), (SendStep(0),))).validate()
    with pytest.raises(ProcessFailed) as failure:
        run_ranks(2, scheduled(schedule, lambda rank: np.ones(4)))
    error = failure.value.__cause__
    assert isinstance(error, ScheduleExecutionError)
    assert str(error) == ("rank 0 cannot execute this hand.built schedule: "
                          "WaitStep(children=(1,), seg=-1) cannot be walked "
                          "on the host")
