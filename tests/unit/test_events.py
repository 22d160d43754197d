"""Unit tests for the event queue."""

import pytest

from repro.sim.events import EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(5.0, fired.append, (5,))
    q.push(1.0, fired.append, (1,))
    q.push(3.0, fired.append, (3,))
    while (ev := q.pop()) is not None:
        ev.fn(*ev.args)
    assert fired == [1, 3, 5]


def test_fifo_for_equal_times():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(2.0, order.append, (i,))
    while (ev := q.pop()) is not None:
        ev.fn(*ev.args)
    assert order == list(range(10))


def test_cancelled_events_are_skipped():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    ev1.cancel()
    q.note_cancelled()
    popped = q.pop()
    assert popped is not None
    assert popped.time == 2.0
    assert q.pop() is None


def test_len_counts_live_events():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    ev.cancel()
    q.note_cancelled()
    assert len(q) == 1
    assert bool(q)
    q.pop()
    assert len(q) == 0
    assert not q


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(7.0, lambda: None)
    ev.cancel()
    q.note_cancelled()
    assert q.peek_time() == 7.0


def test_peek_time_empty():
    assert EventQueue().peek_time() is None


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_many_events_heap_integrity():
    q = EventQueue()
    import random
    rng = random.Random(42)
    times = [rng.uniform(0, 100) for _ in range(500)]
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (ev := q.pop()) is not None:
        popped.append(ev.time)
    assert popped == sorted(times)
