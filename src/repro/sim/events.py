"""Event objects and the time-ordered event queue.

The queue is **one binary heap of ``(time, priority, key, event)``
tuples**.  Python compares these tuples in C, and ``key`` is unique per
queue (below), so a comparison never reaches the event itself.  A pop
therefore returns the live event that minimises ``(time, priority,
key)``: the queue's whole order is that tuple, and nothing else defines
it.  ``tests/property/test_event_queue.py`` pins it against a brute-force
oracle under arbitrary interleavings of push / pop / cancel / peek.

Why not buckets per instant: in the paper regime (a barrier plus a small
reduce under skew) 90 % of pushes open a new instant and the live queue
holds about 20 events, so a bucket per timestamp is a dict entry, a
one-element list and a heap push per event, and the reverse on pop.  Only
the 1024–4096-rank scale grid has wide instants, and there the heap runs
as fast as a calendar queue (DESIGN.md §13).

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
their insertion order.  splitmix64 is a bijection on 64-bit words, so the
key is still unique.  Any run whose results depend on the arbitrary FIFO
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

from heapq import heappop, heappush
from typing import Any, Callable, Optional

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
#: the same pattern as ``repro.cluster.cluster``'s default monitor
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
        Same-instant ordering class (one of the ``PRIORITY_*`` constants);
        compared before the tiebreak, so the shuffle never reorders across
        classes.
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

    __slots__ = ("time", "priority", "key", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, priority: int, key: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.priority = priority
        self.key = key
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so it will never fire."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        fn = getattr(self.fn, "__qualname__", None) or repr(self.fn)
        return f"<Event t={self.time:.3f} seq={self.seq} fn={fn}{state}>"


class EventQueue:
    """Binary heap of ``(time, priority, key, event)`` (see module doc)."""

    __slots__ = ("_heap", "_seq", "_live", "_cancelled", "tiebreak_seed")

    def __init__(self, tiebreak_seed: Optional[int] = None) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
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
        ev = Event(time, priority, key, seq, fn, args)
        heappush(self._heap, (time, priority, key, ev))
        self._live += 1
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            ev = heappop(heap)[3]
            if not ev.cancelled:
                ev.cancelled = True  # fired = spent (see Event)
                self._live -= 1
                return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            if not heap[0][3].cancelled:
                return heap[0][0]
            heappop(heap)
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
