"""Event objects and the time-ordered event queue.

The queue is a **calendar (bucket) queue keyed on timestamp**: events that
share an instant live in one bucket, buckets are ordered by a small heap of
*distinct* timestamps, and only the bucket currently being drained is
ordered internally — by ``(priority, key, seq)`` tuples, compared at C
speed.  Observably the queue behaves exactly like the previous binary heap
keyed on ``(time, priority, key, seq)``; the property suite
(``tests/property/test_calendar_queue.py``) pins the equivalence against a
reference heap model under arbitrary interleavings of push / pop / cancel.
The win is raw speed: the old heap ran one Python ``Event.__lt__`` call per
comparison (~3.3 M calls for a 1024-rank sweep); the calendar queue
compares floats and int tuples natively and shrinks the heap to one entry
per *instant* (barrier and arbitration instants carry hundreds of events).

``seq`` is a global, monotonically increasing counter; in the default FIFO
mode ``key == seq`` so events scheduled for the same instant (and priority
class) fire in insertion order — this is what makes the whole simulation
deterministic for a fixed seed.

**Same-instant priority classes.**  Events that coincide at the exact same
timestamp but model *different layers* of the machine have a defined order
(the determinism contract, DESIGN.md §12) instead of relying on the
arbitrary FIFO tiebreak:

* :data:`PRIORITY_DELIVERY` (0, the default) — hardware effects: packet
  arrivals, DMA/rx completions, link events.
* :data:`PRIORITY_WAKE` (1) — software observing the instant: CPU
  busy/compute segment completions, poll wake-ups, deferred signal
  deliveries.  A rank waking at time *t* sees every hardware effect of
  time *t* already applied — the same reason a real CPU's load at cycle
  *t* observes memory writes that completed at cycle *t*.
* :data:`PRIORITY_TIMER` (2) — protocol timeouts: retransmit timers,
  descriptor-recovery timers.  A timeout due at *t* observes the
  instant's *final* state, so an ACK (or completion) landing exactly at
  the deadline counts as in time rather than racing the timer.
* :data:`PRIORITY_ARBITRATE` (3) — the fabric's end-of-instant port
  arbitration (:meth:`repro.network.fabric.Fabric.inject`): every packet
  injected during the instant is gathered and granted links in a sorted,
  schedule-independent order, so which of two simultaneous senders wins
  a contended port never depends on the event tiebreak.

Without these classes, such coincidences are genuine schedule races: the
perturbation harness (below) found retransmit storms, double-fired
recovery timers and poll-count jitter that flipped with the tiebreak
order.  The shuffle only ever permutes *within* a class.

**Tiebreak-shuffle mode** (the determinism sanitizer's lever, see
:mod:`repro.analysis.races`): when a queue is built with a
``tiebreak_seed``, ``key`` is instead a splitmix64 hash of ``(seed, seq)``,
so same-time events fire in a *deterministic pseudo-random permutation* of
their insertion order.  Any run whose results depend on the arbitrary FIFO
tiebreak — the discrete-event analogue of a data race — diverges under a
shuffled schedule and is caught by the perturbation harness.  Causality is
preserved by construction: an event pushed while another executes cannot
pop before it, whatever its key, because pops only ever see already-pushed
events.  Per-seed determinism holds because the permutation is a pure
function of ``(seed, seq)``.

Cancellation is *lazy*: :meth:`Event.cancel` flips a flag and the queue skips
cancelled entries when popping.  This keeps cancellation O(1), which matters
because the preemptive CPU model cancels and reschedules wake-up events every
time a NIC signal interrupts an application busy-loop.  Cancelled entries
are counted (``EventQueue.cancelled``) so defunct-timer load — e.g. the
fault-recovery timers cancelled on every completed descriptor — shows up in
``Simulator.counters()`` instead of being invisible.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from . import access

_MASK64 = (1 << 64) - 1

#: Same-instant ordering classes (see module doc): hardware deliveries
#: fire before CPU wake-ups, which fire before protocol timers, which
#: fire before the fabric's end-of-instant port arbitration.
PRIORITY_DELIVERY = 0
PRIORITY_WAKE = 1
PRIORITY_TIMER = 2
PRIORITY_ARBITRATE = 3

#: Process-wide default tiebreak seed (None = FIFO).  Installed by the
#: schedule-perturbation harness so every EventQueue built while it is set
#: runs shuffled, without plumbing a seed through cluster construction —
#: the same pattern as ``repro.analysis.invariants``'s default monitor
#: factory.
_default_tiebreak_seed: Optional[int] = None


def set_default_tiebreak_seed(seed: Optional[int]) -> None:
    """Set (or clear) the tiebreak-shuffle seed for new event queues."""
    global _default_tiebreak_seed
    _default_tiebreak_seed = seed


def get_default_tiebreak_seed() -> Optional[int]:
    return _default_tiebreak_seed


def _mix64(x: int) -> int:
    """splitmix64 finalizer: deterministic, well-distributed, stdlib-free
    (``hash()`` is salted per interpreter run; ``random`` is banned in sim
    scope by SIM008)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def tiebreak_key(seed: int, seq: int) -> int:
    """The shuffled tiebreak for event ``seq`` under ``seed`` (pure)."""
    return _mix64((seed & _MASK64) ^ _mix64(seq))


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute simulation time (microseconds) at which the event fires.
    priority:
        Same-instant ordering class (``PRIORITY_DELIVERY`` /
        ``PRIORITY_WAKE`` / ``PRIORITY_TIMER``); compared before the
        tiebreak, so the shuffle never reorders across classes.
    seq:
        Global insertion counter (unique per queue).
    key:
        Same-time tiebreaker: ``seq`` in FIFO mode, a pseudo-random
        function of ``(tiebreak_seed, seq)`` in shuffle mode.
    fn / args:
        The callback and its positional arguments.
    cancelled:
        True once the event is *spent*: set by :meth:`cancel` (the queue
        then skips it on pop) and by the queue itself when it hands the
        event out to fire, so a late ``Simulator.cancel`` of an event
        that already ran is a no-op instead of a second decrement of the
        live count.
    """

    __slots__ = ("time", "priority", "seq", "key", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any],
                 args: tuple, key: Optional[int] = None,
                 priority: int = PRIORITY_DELIVERY):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.key = seq if key is None else key
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so it will never fire."""
        self.cancelled = True

    def label(self) -> str:
        """Human-readable identity (used by race reports)."""
        return getattr(self.fn, "__qualname__", None) or repr(self.fn)

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        if self.key != other.key:
            return self.key < other.key
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.3f} seq={self.seq} fn={self.label()}{state}>"


#: A bucket-internal heap entry: ``(priority, key, seq, event)``.  The
#: ``seq`` component is unique per queue, so comparison never reaches the
#: (incomparable-by-tuple) event itself.
_CurrentItem = tuple[int, int, int, "Event"]


class EventQueue:
    """Calendar/bucket queue ordered by ``(time, priority, key, seq)``.

    Structure (see module doc):

    * ``_buckets`` maps each *future* timestamp to an unordered list of
      its events — pushes append in O(1);
    * ``_times`` is a min-heap of the distinct timestamps with a bucket;
    * ``_current`` is the instant being drained, held as a small heap of
      ``(priority, key, seq, event)`` tuples (built once, when the bucket's
      time becomes the earliest).  Same-instant pushes that arrive *while*
      the instant drains (the ``schedule(0.0, ...)`` pattern the process
      driver leans on) land directly in this heap, preserving the exact
      ``(priority, key, seq)`` order the old binary heap produced.

    Pops therefore return events in exactly the old ``(time, priority,
    key, seq)`` order — FIFO tiebreak, shuffle mode and lazy cancellation
    semantics are all unchanged.
    """

    __slots__ = ("_buckets", "_times", "_current", "_current_time",
                 "_seq", "_live", "_cancelled", "tiebreak_seed")

    def __init__(self, tiebreak_seed: Optional[int] = None) -> None:
        self._buckets: dict[float, list[Event]] = {}
        self._times: list[float] = []
        self._current: list[_CurrentItem] = []
        self._current_time: float = 0.0
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        #: None = FIFO tiebreak; an int arms the shuffle (see module doc).
        #: Falls back to the process-wide default installed by the
        #: perturbation harness.
        self.tiebreak_seed: Optional[int] = (
            tiebreak_seed if tiebreak_seed is not None
            else _default_tiebreak_seed)

    def push(self, time: float, fn: Callable[..., Any],
             args: tuple = (),
             priority: int = PRIORITY_DELIVERY) -> Event:
        """Schedule ``fn(*args)`` at absolute time ``time``."""
        seq = self._seq = self._seq + 1
        seed = self.tiebreak_seed
        key = seq if seed is None else tiebreak_key(seed, seq)
        ev = Event(time, seq, fn, args, key, priority)
        current = self._current
        # Exact float equality is the *design* here, not an accident: the
        # calendar keys buckets on raw timestamps, and "same instant"
        # means bit-equal time (identical arithmetic ⇒ identical floats,
        # the determinism contract's premise).  A tolerance would merge
        # distinct instants and change delivery order.
        if current and time == self._current_time:  # simlint: ignore[SIM003]
            # The instant is mid-drain: join it directly so the new event
            # still fires this instant, in (priority, key, seq) position.
            heappush(current, (priority, key, seq, ev))
        else:
            if current and time < self._current_time:
                # A push into the past of the draining instant (never the
                # simulator — it cannot schedule before ``now`` — but the
                # raw queue API allows it and the heap honoured it).
                self._reinstate_current()
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = [ev]
                heappush(self._times, time)
            else:
                bucket.append(ev)
        self._live += 1
        tracer = access.TRACER
        if tracer is not None:
            tracer.on_event_scheduled(ev)
        return ev

    def _reinstate_current(self) -> None:
        """Demote the partially drained instant back to a bucket (only
        needed when a push targets an earlier time than ``_current_time``)."""
        events = [item[3] for item in self._current]
        self._current = []
        if not events:
            return
        t = self._current_time
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = events
            heappush(self._times, t)
        else:
            bucket.extend(events)

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        times = self._times
        buckets = self._buckets
        while True:
            current = self._current
            if current:
                if times and times[0] < self._current_time:
                    self._reinstate_current()
                    continue
                ev = heappop(current)[3]
                if ev.cancelled:
                    continue
                ev.cancelled = True  # fired = spent (see Event)
                self._live -= 1
                return ev
            if not times:
                return None
            t = heappop(times)
            bucket = buckets.pop(t, None)
            if bucket is None:
                continue  # stale heap entry left by peek-time compaction
            if len(bucket) == 1:
                # Singleton instant — the common case (most timestamps
                # carry one event): skip the per-instant heap entirely.
                # ``_current`` stays empty, so a same-instant push from
                # this event's callback opens a fresh bucket at ``t``,
                # which the times heap delivers next — same order.
                ev = bucket[0]
                self._current_time = t
                if ev.cancelled:
                    continue
                ev.cancelled = True
                self._live -= 1
                return ev
            items: list[_CurrentItem] = [
                (e.priority, e.key, e.seq, e) for e in bucket
                if not e.cancelled
            ]
            if not items:
                continue
            heapify(items)
            self._current = items
            self._current_time = t

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        times = self._times
        buckets = self._buckets
        current = self._current
        if current and times and times[0] < self._current_time:
            self._reinstate_current()
            current = self._current
        while current:
            if current[0][3].cancelled:
                heappop(current)
            else:
                return self._current_time
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if bucket is None:
                heappop(times)
                continue
            live = [e for e in bucket if not e.cancelled]
            if not live:
                del buckets[t]
                heappop(times)
                continue
            if len(live) != len(bucket):
                buckets[t] = live  # compact so repeated peeks stay cheap
            return t
        return None

    def note_cancelled(self) -> None:
        """Bookkeeping hook: callers that cancel an event should call this so
        :func:`__len__` stays an accurate *live* count."""
        self._live -= 1
        self._cancelled += 1

    @property
    def cancelled(self) -> int:
        """How many scheduled events were cancelled before firing."""
        return self._cancelled

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
