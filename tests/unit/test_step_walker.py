"""The host-side step walker (repro.mpich.collectives.walk) on schedules no
registered lowering emits."""

import numpy as np
import pytest

from repro.core.interpreter import ScheduleExecutionError, execute_schedule
from repro.errors import DeadlockError, ProcessFailed
from repro.mpich.collectives.walk import walk_steps
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


def walked(schedule, elements):
    """Each rank walks its own steps over ``full(elements, rank + 1)``."""
    def program(mpi):
        acc = np.full(elements, float(mpi.rank + 1))
        yield from walk_steps(mpi, mpi.comm_world, schedule.steps[mpi.rank],
                              acc, op=SUM)
        return acc
    return program


def exchange(first, second):
    return Schedule("allreduce", "hand.built", 2, steps=(
        (first(1), second(1), FoldStep(1)),
        (first(0), second(0), FoldStep(0)))).validate()


# 32 B is eager; 64 KiB is past the eager limit (a rendezvous send waits
# for the receiver's CTS).
@pytest.mark.parametrize("elements", [4, 8192], ids=["32B", "64KiB"])
def test_recv_first_exchange_validates_and_executes(elements):
    """The receive rule: a posted receive completes after the send behind
    it, so both ranks send before they wait — in the validator and in the
    walker, at either protocol."""
    out = run_ranks(2, walked(exchange(RecvStep, SendStep), elements))
    for result in out.results:
        assert np.array_equal(result, np.full(elements, 3.0))


@pytest.mark.xfail(raises=DeadlockError, strict=True,
                   reason="walker sends block beyond the eager limit")
def test_send_first_rendezvous_exchange_executes():
    """Validator-clean (sends never block in its model), but each walker
    send waits for a CTS the other rank, blocked in its own send, never
    returns."""
    out = run_ranks(2, walked(exchange(SendStep, RecvStep), 8192))
    for result in out.results:
        assert np.array_equal(result, np.full(8192, 3.0))


def test_two_receives_before_their_folds_keep_both_operands():
    """Each received operand has its own scratch buffer until it is
    folded: the second receive must not overwrite the first."""
    schedule = Schedule("reduce", "hand.built", 3, steps=(
        (RecvStep(1), RecvStep(2), FoldStep(1), FoldStep(2)),
        (SendStep(0),), (SendStep(0),))).validate()
    out = run_ranks(3, walked(schedule, 4))
    assert np.array_equal(out.results[0], np.full(4, 6.0))
