"""The event queue against a brute-force oracle.

The order of events is defined in one place: the ``(time, priority,
key)`` tuple the queue's heap compares (``src/repro/sim/events.py``).
These tests state that order independently — every pop returns the live
event minimizing ``(time, priority, key, seq)``, found by a min over the
live set — and require the queue to agree under any interleaving of
pushes (including pushes at or before the earliest queued time), lazy
cancellations and ``peek_time`` probes, in FIFO mode and under a
tiebreak-shuffle seed.

Every observable is compared: which event pops, what ``peek_time``
reports, the live count and the cancelled count.  Cancels go through
``Simulator.cancel``'s rule and may name *any* event ever pushed: one that
already fired or was already cancelled is spent, and cancelling it must
change nothing.  The same-instant ordering laws themselves live in
``test_tiebreak_properties.py``; this file pins the data structure.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.events import (PRIORITY_ARBITRATE, PRIORITY_DELIVERY,
                              PRIORITY_TIMER, PRIORITY_WAKE, EventQueue)

PRIORITIES = (PRIORITY_DELIVERY, PRIORITY_WAKE, PRIORITY_TIMER,
              PRIORITY_ARBITRATE)

#: A small clustered time domain: collisions (same-instant events) and
#: out-of-order pushes are the interesting cases, so draw from few values.
TIMES = (0.0, 1.0, 1.5, 2.0, 7.25)


class OracleQueue:
    """Brute force: pop = min over the live set by the total event order.

    Keeps its own record of what is live (it shares the ``Event`` objects
    with the real queue but never reads their ``cancelled`` flag)."""

    def __init__(self) -> None:
        self.live: list = []
        self.cancelled = 0

    def push(self, ev) -> None:
        self.live.append(ev)

    def pop(self):
        if not self.live:
            return None
        best = min(self.live,
                   key=lambda e: (e.time, e.priority, e.key, e.seq))
        self.live.remove(best)
        return best

    def cancel(self, ev) -> None:
        """Only a pending event can be cancelled; a spent one is a no-op."""
        if ev in self.live:
            self.live.remove(ev)
            self.cancelled += 1

    def peek_time(self):
        return min(e.time for e in self.live) if self.live else None

    def __len__(self) -> int:
        return len(self.live)


def _ops():
    return st.lists(
        st.one_of(
            st.tuples(st.just("push"),
                      st.sampled_from(TIMES),
                      st.sampled_from(PRIORITIES)),
            st.tuples(st.just("pop")),
            st.tuples(st.just("peek")),
            st.tuples(st.just("cancel"), st.integers(min_value=0)),
        ),
        min_size=1, max_size=60)


def _run_schedule(seed, ops):
    queue = EventQueue(tiebreak_seed=seed)
    oracle = OracleQueue()
    pushed = []
    for op in ops:
        if op[0] == "push":
            _, time, priority = op
            ev = queue.push(time, lambda: None, (), priority=priority)
            oracle.push(ev)
            pushed.append(ev)
        elif op[0] == "pop":
            got = queue.pop()
            want = oracle.pop()
            assert got is want, (
                f"pop mismatch: queue returned "
                f"{got and (got.time, got.priority, got.seq)}, oracle "
                f"{want and (want.time, want.priority, want.seq)}")
        elif op[0] == "peek":
            assert queue.peek_time() == oracle.peek_time()
        elif pushed:
            # Cancel the op[1]-th event ever pushed — pending, already
            # fired or already cancelled — the way Simulator.cancel does.
            victim = pushed[op[1] % len(pushed)]
            if not victim.cancelled:
                victim.cancel()
                queue.note_cancelled()
            oracle.cancel(victim)
        assert len(queue) == len(oracle)
        assert queue.cancelled == oracle.cancelled
    # Drain both: the tails must agree event-for-event.
    while True:
        got, want = queue.pop(), oracle.pop()
        assert got is want
        if got is None:
            break
    assert len(queue) == 0 and queue.peek_time() is None


@settings(max_examples=300, deadline=None)
@given(ops=_ops())
def test_event_queue_matches_oracle_fifo(ops):
    """FIFO mode (production default): key == seq, insertion order within
    an instant and priority class."""
    _run_schedule(None, ops)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1), ops=_ops())
def test_event_queue_matches_oracle_shuffled(seed, ops):
    """Race-detector mode: key is the splitmix64 tiebreak, so the
    within-instant order is a seeded permutation — the queue must
    reproduce it exactly."""
    _run_schedule(seed, ops)


@settings(max_examples=200, deadline=None)
@given(times=st.lists(st.sampled_from(TIMES), min_size=1, max_size=40))
def test_interleaved_push_pop_total_order(times):
    """Popping between pushes (the simulator's actual access pattern,
    including same-instant wakeups scheduled mid-drain) still yields a
    globally sorted delivery sequence of exactly the pushed events."""
    queue = EventQueue()
    popped_mid = []
    for i, t in enumerate(times):
        queue.push(t, lambda: None, ())
        if i % 3 == 2:
            ev = queue.pop()
            assert ev is not None
            popped_mid.append(ev)
    tail = []
    while (ev := queue.pop()) is not None:
        tail.append(ev)
    # Nothing lost, nothing duplicated...
    assert len(popped_mid) + len(tail) == len(times)
    assert sorted(e.seq for e in popped_mid + tail) == \
        list(range(1, len(times) + 1))
    # ...and once pushes stop, the drain is the exact total order.  (The
    # interleaved pops themselves are each a minimum-at-the-time; pushes
    # after a pop may rewind time, so the full concatenation need not be
    # globally sorted — the oracle tests above pin that case.)
    order = [(e.time, e.priority, e.key, e.seq) for e in tail]
    assert order == sorted(order)
