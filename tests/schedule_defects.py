"""A corpus of defective schedules, one per way ``Schedule.validate`` says no.

``DEFECTS`` maps a case name to a hand-built :class:`Schedule`; every one
must be rejected, and ``tests/unit/golden/schedule_defects.json`` holds the
exact ``ScheduleValidationError`` text each raised at commit 9dd9f3b (the
round-robin validator, before the receive rule of :mod:`repro.schedule.ir`;
the deadlock cases fold before they send, so both models reject them with
the same text).  The cases cover the four deadlock shapes, every
structure / matching / fold message, and multi-defect schedules that pin
which check speaks first.  Built from the public constructors only, so the
same file runs against any commit: ``python tests/schedule_defects.py``
prints the golden JSON for the ``repro`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json

from repro.schedule.ir import (BcastStep, FoldStep, RecvStep, Schedule,
                               ScheduleValidationError, SendStep, WaitStep)


def _sched(steps, *, collective="reduce", nranks=None, root=0, nseg=0):
    return Schedule(collective, "hand-built",
                    len(steps) if nranks is None else nranks,
                    root, nseg, steps=steps)


def _recv_fold(peer, seg=-1):
    return [RecvStep(peer, seg), FoldStep(peer, seg)]


def _build() -> dict:
    d = {}

    # -- progress: the four deadlock shapes, and partial ones ------------
    # A receive directly followed by a send completes after the send (the
    # receive rule), so each cycle below folds what it receives before it
    # sends: the send needs the data.
    d["deadlock.two_rank_recv_before_send"] = _sched([
        _recv_fold(1) + [SendStep(1)],
        _recv_fold(0) + [SendStep(0)]])
    d["deadlock.three_rank_ring"] = _sched([
        _recv_fold(2) + [SendStep(1)],
        _recv_fold(0) + [SendStep(2)],
        _recv_fold(1) + [SendStep(0)]])
    d["deadlock.wait_cycle"] = _sched([
        [WaitStep((1,)), SendStep(1)],
        [WaitStep((0,)), SendStep(0)]])
    # Rank 1 wants segment 1 back before it has sent segment 1 up.
    d["deadlock.segment_order_inversion"] = _sched([
        _recv_fold(1, 0) + [BcastStep(1, "send", 0)]
        + _recv_fold(1, 1) + [BcastStep(1, "send", 1)],
        [SendStep(0, 0), BcastStep(0, "recv", 1),
         SendStep(0, 1), BcastStep(0, "recv", 0)]],
        collective="allreduce", nseg=2)
    d["deadlock.bcast_cycle"] = _sched([
        [BcastStep(1, "recv"), BcastStep(1, "send")],
        [BcastStep(0, "recv"), BcastStep(0, "send")]],
        collective="bcast")
    # Ranks 0 and 1 finish; the cycle is 2 <-> 3, so stuck[0] is rank 2.
    d["deadlock.partial_stuck_first_is_rank_2"] = _sched([
        _recv_fold(1),
        [SendStep(0)],
        _recv_fold(3) + [SendStep(3)],
        _recv_fold(2) + [SendStep(2)]])
    # One child of the wait delivers, the other sits behind the wait.
    d["deadlock.wait_one_child_arrives"] = _sched([
        [WaitStep((1, 2)), SendStep(2)],
        [SendStep(0)],
        _recv_fold(0) + [SendStep(0)]])
    # Progress is made for a while before the chain jams mid-way.
    d["deadlock.after_progress"] = _sched([
        [SendStep(1)] + _recv_fold(1) + _recv_fold(1) + [SendStep(1)],
        _recv_fold(0) + [SendStep(0)] + _recv_fold(2)
        + [SendStep(2), SendStep(0)] + _recv_fold(0),
        _recv_fold(1) + [SendStep(1)],
        []])

    # -- structure: one case per message ---------------------------------
    d["structure.unknown_collective"] = _sched([[]], collective="scan")
    d["structure.nranks_below_one"] = _sched([], nranks=0)
    d["structure.root_out_of_range"] = _sched([[], []], root=2)
    d["structure.negative_nseg"] = _sched([[]], nseg=-1)
    d["structure.rank_list_count"] = _sched([[], []], nranks=3)
    d["structure.wait_no_children"] = _sched([[WaitStep(())], []])
    d["structure.unknown_step"] = _sched([[], ["send to 0"]])
    d["structure.send_peer_out_of_range"] = _sched([[SendStep(2)], []])
    d["structure.recv_peer_negative"] = _sched([[], [RecvStep(-1)]])
    d["structure.fold_child_out_of_range"] = _sched([[FoldStep(7)], []])
    d["structure.wait_child_out_of_range"] = _sched(
        [[WaitStep((1, 5))], [SendStep(0)]])
    d["structure.bcast_peer_out_of_range"] = _sched(
        [[BcastStep(9, "recv")], []], collective="bcast")
    d["structure.self_send"] = _sched([[], [SendStep(1)]])
    d["structure.self_wait_child"] = _sched(
        [[WaitStep((1, 0))], [SendStep(0)]])
    d["structure.whole_message_seg_in_segmented"] = _sched(
        [[RecvStep(1)], [SendStep(0, 0)]], nseg=2)
    d["structure.seg_beyond_nseg"] = _sched(
        [[RecvStep(1, 0)], [SendStep(0, 2)]], nseg=2)
    d["structure.seg_in_whole_message"] = _sched(
        [[RecvStep(1, 0)], [SendStep(0, 0)]])

    # -- matching ---------------------------------------------------------
    d["matching.recv_without_send"] = _sched([_recv_fold(1), []])
    d["matching.send_without_recv"] = _sched([[], [SendStep(0)]])
    d["matching.wait_child_never_sends"] = _sched(
        [[WaitStep((1, 2))], [SendStep(0)], []])
    d["matching.bcast_recv_without_send"] = _sched(
        [[], [BcastStep(0, "recv")]], collective="bcast")
    d["matching.bcast_send_without_recv"] = _sched(
        [[BcastStep(1, "send")], []], collective="bcast")
    d["matching.second_send_unmatched"] = _sched(
        [_recv_fold(1), [SendStep(0), SendStep(0)]])
    d["matching.wrong_segment"] = _sched(
        [_recv_fold(1, 0) + _recv_fold(1, 1),
         [SendStep(0, 0), SendStep(0, 0)]], nseg=2)
    # Three unmatched receive keys: the sorted-first one is named ("bc"
    # sorts before "p2p"), the count is all three.
    d["matching.three_unmatched_recvs_sorted"] = _sched(
        [[RecvStep(2), RecvStep(1)], [BcastStep(2, "recv")], []],
        collective="allreduce")
    # A send on the wrong channel: both sides are unmatched, the receive
    # is reported.
    d["matching.recv_reported_before_send"] = _sched(
        [[RecvStep(1)], [BcastStep(0, "send")]], collective="allreduce")

    # -- fold operands ----------------------------------------------------
    d["fold.before_recv"] = _sched(
        [[FoldStep(1), RecvStep(1)], [SendStep(0)]])
    d["fold.twice_after_one_recv"] = _sched(
        [[RecvStep(1), FoldStep(1), FoldStep(1)], [SendStep(0)]])
    d["fold.wrong_child"] = _sched(
        [[RecvStep(1), RecvStep(2), FoldStep(1), FoldStep(1)],
         [SendStep(0)], [SendStep(0)]])
    d["fold.wrong_segment"] = _sched(
        [[RecvStep(1, 0), FoldStep(1, 1), RecvStep(1, 1)],
         [SendStep(0, 0), SendStep(0, 1)]], nseg=2)
    d["fold.wait_is_not_an_operand"] = _sched(
        [[WaitStep((1,)), FoldStep(1)], [SendStep(0)]])

    # -- precedence: structure > matching > fold > progress; within a
    # check, the first rank, then the first step, then the first test ----
    d["precedence.structure_on_rank_3_beats_matching_on_rank_0"] = _sched(
        [[RecvStep(1)], [], [], [SendStep(3)]])
    d["precedence.matching_beats_fold_and_deadlock"] = _sched(
        [[FoldStep(1), RecvStep(1), RecvStep(2)],
         [RecvStep(2), SendStep(0)],
         [RecvStep(1), SendStep(1)]])
    d["precedence.fold_beats_deadlock"] = _sched(
        [_recv_fold(1) + [SendStep(1)],
         _recv_fold(0) + [SendStep(0)],
         [FoldStep(0)]])
    d["precedence.first_rank_first_step"] = _sched(
        [[SendStep(1), SendStep(0)], [SendStep(9)]])
    d["precedence.peer_range_before_segment"] = _sched(
        [[WaitStep((1, 4), 3)], [SendStep(0)]])
    d["precedence.first_fold_defect_wins"] = _sched(
        [[RecvStep(1), FoldStep(1), FoldStep(1)],
         [SendStep(0), RecvStep(2), FoldStep(0)],
         [SendStep(1)]])
    return d


DEFECTS = _build()


def messages(validate) -> dict:
    """``{case: error text}`` under ``validate(schedule)``; a case that is
    accepted maps to None."""
    out = {}
    for name, schedule in DEFECTS.items():
        try:
            validate(schedule)
        except ScheduleValidationError as exc:
            out[name] = str(exc)
        else:
            out[name] = None
    return out


if __name__ == "__main__":
    print(json.dumps(messages(Schedule.validate), indent=1))
