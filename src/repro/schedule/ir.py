"""The schedule IR: frozen per-rank step lists with structural validation.

A :class:`Schedule` describes one collective over ``nranks`` communicator
ranks as, for every rank, an *ordered* tuple of steps:

``SendStep(peer, seg)``
    Send this rank's (accumulated) payload for segment ``seg`` to ``peer``
    on the reduce channel.
``RecvStep(peer, seg)``
    Receive a reduce-channel contribution for ``seg`` from ``peer`` into a
    scratch buffer, under the receive rule below.
``FoldStep(child, seg)``
    Fold the most recent unconsumed receive from ``child`` for ``seg`` into
    the local accumulator.
``WaitStep(children, seg)``
    Application-bypass descriptor completion: the NIC receives *and* folds
    one contribution per child without host involvement.  For validation it
    behaves as a combined recv+fold of every child.
``BcastStep(peer, direction, seg)``
    Broadcast-channel transfer: ``direction == "recv"`` consumes from the
    parent, ``direction == "send"`` forwards to a child.

Segment ids are ``-1`` for whole-message schedules (``nseg == 0``) and
``0 <= seg < nseg`` otherwise.  Peers are communicator ranks.

**The receive rule**, one for the walker
(:func:`repro.mpich.collectives.walk.walk_steps`) and the validator: a
``RecvStep`` posts its receive when it is reached, and the receive
completes before the rank's next step that is not a ``SendStep``, or at the
end of its steps; other receives block where they stand.  Sends never
block here, but a walker send past the eager limit waits for its CTS, so a
send-first exchange of such messages validates clean and deadlocks.

Validation (:meth:`Schedule.validate`) checks structure, that the send and
receive multisets match exactly on each channel, that every fold has an
unconsumed operand, and that no rank blocks forever — all in one sweep that
abstractly executes every rank against buffered channels, with a second
sweep only to name a defect it found.  Lowering, validation and the JSON
round trip are all O(steps) (DESIGN.md §15); :meth:`Schedule.from_json` is
the front door for outside input and answers anything malformed with one
:class:`ScheduleError` line.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Union, get_args, get_origin, get_type_hints

from ..config import RecordError, decode, encode, loads, typed
from ..errors import ReproError

SCHEDULE_SCHEMA = 1


class ScheduleError(ReproError):
    """Error constructing or transforming a schedule."""


class ScheduleValidationError(ScheduleError):
    """A schedule failed structural or semantic validation."""


class Step:
    """Base class for schedule steps (slotted frozen dataclass subclasses).

    Every step class ends in a ``seg`` field, and :func:`_step_type` builds
    the rest of it from its fields, once, at import: ``_fields`` (names in
    declaration = JSON order), ``__new__`` and a row of :data:`_SHAPES`;
    no per-step path calls :func:`dataclasses.fields`.

    A step is an interned value: ``__new__`` returns the one object the
    class's ``_table`` holds for the field values, built on the first call,
    if every field has exactly its annotated type (a tuple field is made a
    tuple, each item of exactly its type).  ``SendStep(True)``,
    ``SendStep(1.0)`` or a NumPy integer get a private object instead.

    An interned step keeps its JSON text in ``_json`` once it is first
    written (``None`` until then; ``False`` on a private step, written
    afresh each time), so :meth:`Schedule.to_json` costs one
    ``json.dumps`` per distinct step.
    """

    __slots__ = ("_json",)
    op = "step"
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}     # per class: a subclass never answers for its base

    @classmethod
    def _build(cls, values: tuple, text=False) -> "Step":
        """A new step with ``values`` in field order and ``_json`` ``text``."""
        step = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(step, name, value)
        object.__setattr__(step, "_json", text)
        step._check_fields()
        return step

    def _text(self) -> str:
        """This step's JSON text, kept by an interned step."""
        text = json.dumps(self.to_dict())
        if self._json is None:
            object.__setattr__(self, "_json", text)
        return text

    def _check_fields(self) -> None:
        """Refuse a step :meth:`_build` has just filled (if a class says)."""

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the interned step
        return self.__class__, tuple(getattr(self, n) for n in self._fields)

    def with_seg(self, seg: int) -> "Step":
        """Return a copy of this step tagged with segment id ``seg``."""
        return self.__class__(
            *[getattr(self, name) for name in self._fields[:-1]], seg)

    def to_dict(self) -> dict:
        d = {"step": self.op}
        for name in self._fields:
            value = getattr(self, name)
            d[name] = list(value) if type(value) is tuple else value
        return d


STEP_TYPES: dict = {}

#: tag -> (key count, field getter, exact JSON type of each field, intern
#: table, (position, {item type}) of each tuple field) of each step class.
_SHAPES: dict = {}

#: A step class's ``__new__``, written as :mod:`dataclasses` writes __init__.
_NEW = """def __new__(cls, {params}):
    values = ({values},)
    if {exact}:
        return cls._table.get(values) or cls._table.setdefault(
            values, cls._build(values, None))
    return cls._build(values)"""


def _step_type(cls):
    """Class decorator: register a step dataclass under its ``op`` tag and
    build the rest of it from its fields (see :class:`Step`).  A field is a
    scalar or a ``tuple[X, ...]``, which JSON writes as a list."""
    hints = get_type_hints(cls)
    fields = dataclasses.fields(cls)
    cls._fields = names = tuple(f.name for f in fields)
    items = {i: frozenset(get_args(hints[name])[:1])
             for i, name in enumerate(names)
             if get_origin(hints[name]) is tuple}
    kinds = [list if i in items else hints[name]
             for i, name in enumerate(names)]
    values = ["tuple(%s)" % name if i in items else name
              for i, name in enumerate(names)]
    exact = ["_items[%d].issuperset(map(type, values[%d]))" % (i, i)
             if i in items else "type(%s) is %s" % (name, kinds[i].__name__)
             for i, name in enumerate(names)]
    space = {kind.__name__: kind for kind in kinds}
    space["_items"] = items
    space.update(("_" + f.name, f.default) for f in fields
                 if f.default is not dataclasses.MISSING)
    exec(_NEW.format(params=", ".join(
        name + "=_" + name if "_" + name in space else name for name in names),
        values=", ".join(values), exact=" and ".join(exact)), space)
    cls.__new__ = staticmethod(space["__new__"])
    _SHAPES[cls.op] = (len(names) + 1, itemgetter(*names), tuple(kinds),
                       cls._table, tuple(items.items()))
    STEP_TYPES[cls.op] = cls
    return cls


@_step_type
@dataclass(frozen=True, slots=True, init=False)
class SendStep(Step):
    peer: int
    seg: int = -1
    op = "send"


@_step_type
@dataclass(frozen=True, slots=True, init=False)
class RecvStep(Step):
    peer: int
    seg: int = -1
    op = "recv"


@_step_type
@dataclass(frozen=True, slots=True, init=False)
class FoldStep(Step):
    child: int
    seg: int = -1
    op = "fold"


@_step_type
@dataclass(frozen=True, slots=True, init=False)
class BcastStep(Step):
    peer: int
    direction: str = "send"
    seg: int = -1
    op = "bcast"

    def _check_fields(self) -> None:
        if self.direction not in ("send", "recv"):
            raise ScheduleError(
                "BcastStep direction must be 'send' or 'recv', got %r"
                % (self.direction,))


@_step_type
@dataclass(frozen=True, slots=True, init=False)
class WaitStep(Step):
    children: tuple[int, ...] = ()
    seg: int = -1
    op = "wait"


AnyStep = Union[SendStep, RecvStep, FoldStep, BcastStep, WaitStep]


def _known_step(d) -> Optional[Step]:
    """The interned step an exactly shaped step object names: ``"step"``
    plus one key per field, each of exactly its JSON type (a tuple field a
    list of exact items), checked before anything is hashed.  None for any
    other object or a value not yet built, which :func:`step_from_dict`
    answers."""
    if type(d) is dict:
        tag = d.get("step")
        shape = _SHAPES.get(tag) if type(tag) is str else None
        if shape is not None and len(d) == shape[0]:
            try:
                values = shape[1](d)
            except KeyError:        # a field missing, an unknown key instead
                return None
            for value, kind in zip(values, shape[2]):
                if type(value) is not kind:
                    return None
            if shape[4]:            # tuple fields arrive as lists
                for i, exact in shape[4]:
                    if not exact.issuperset(map(type, values[i])):
                        return None
                    values = (*values[:i], tuple(values[i]), *values[i + 1:])
            return shape[3].get(values)
    return None


def step_from_dict(d: dict) -> AnyStep:
    """One step from its JSON object, decoded as every record is
    (:func:`repro.config.decode`) into the class its ``"step"`` tag names."""
    if type(d) is not dict:
        raise RecordError("a step must be a JSON object, got %r" % (d,))
    kind = d.get("step")
    cls = STEP_TYPES.get(kind) if type(kind) is str else None
    if cls is None:
        raise RecordError("unknown step tag %r" % (kind,))
    return decode(cls, d, kind + " step", own=("step",), prefix=kind + ".")


@dataclass(frozen=True)
class Schedule:
    """An immutable collective schedule over ``nranks`` communicator ranks."""

    collective: str     # "reduce" | "bcast" | "allreduce" | "barrier"
    lowering: str                        # registry name that produced it
    nranks: int
    root: int = 0
    nseg: int = 0                        # 0 == whole-message
    meta: tuple = ()                     # ((key, value), ...) provenance pairs
    steps: tuple = ()                    # per-rank tuples of Step

    def __post_init__(self) -> None:
        # O(ranks), not O(steps): tuple() of a tuple is that tuple.
        object.__setattr__(self, "meta", tuple(tuple(kv) for kv in self.meta))
        object.__setattr__(self, "steps", tuple(tuple(s) for s in self.steps))

    # ------------------------------------------------------------------
    # convenience

    @property
    def step_count(self) -> int:
        return sum(len(s) for s in self.steps)

    def with_meta(self, key: str, value: str) -> "Schedule":
        return replace(self, meta=self.meta + ((key, str(value)),))

    def meta_dict(self) -> dict:
        return dict(self.meta)

    # ------------------------------------------------------------------
    # JSON round trip

    def to_dict(self) -> dict:
        return {"schema": SCHEDULE_SCHEMA, **encode(self, steps=None),
                "ranks": [[s.to_dict() for s in rank] for rank in self.steps]}

    @classmethod
    def from_dict(cls, d: dict) -> "Schedule":
        """The schedule a :meth:`to_dict` object describes.  The front door
        for outside input: anything malformed is one :class:`ScheduleError`
        line naming the place (``ranks[3][7]: send.peer must be an int, got
        '1'``), never a traceback from inside."""
        try:
            # Schema, keys and header fields first; the steps are walked
            # only for an object that passed, and put in at the end.
            header = decode(cls, d, "schedule", schema=SCHEDULE_SCHEMA,
                            own=("meta", "ranks"), meta=(), steps=())
            meta = d.get("meta", [])
            for i, kv in enumerate(typed(tuple)("meta", meta)):
                if (type(kv) is not list or len(kv) != 2
                        or type(kv[0]) is not str or type(kv[1]) is not str):
                    raise RecordError(
                        "meta[%d] must be a [key, value] pair of strings, "
                        "got %r" % (i, kv))
            steps = []
            for rank in typed(tuple)("ranks", d.get("ranks", [])):
                if type(rank) is not list:
                    raise RecordError(
                        "ranks[%d] must be a list of steps, got %r"
                        % (len(steps), rank))
                row: list = []
                try:
                    for step in rank:
                        row.append(_known_step(step)
                                   or step_from_dict(step))
                except (RecordError, ScheduleError) as exc:
                    raise RecordError("ranks[%d][%d]: %s" % (
                        len(steps), len(row), exc)) from None
                steps.append(tuple(row))
        except RecordError as exc:
            raise ScheduleError(str(exc)) from None
        return replace(header, meta=meta, steps=steps)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """``json.dumps(self.to_dict(), indent=indent)``.  Without
        ``indent``: a step-less copy's text, its ``"ranks": []}`` filled
        with the steps' kept texts (:class:`Step`)."""
        if indent is not None:
            return json.dumps(self.to_dict(), indent=indent, sort_keys=False)
        ranks = ", ".join(["[%s]" % ", ".join([step._json or step._text()
                                               for step in rank])
                           for rank in self.steps])
        return "%s%s]}" % (json.dumps(replace(self, steps=()).to_dict())[:-2],
                           ranks)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        try:
            d = loads(text, "schedule")
        except RecordError as exc:
            raise ScheduleError(str(exc)) from None
        return cls.from_dict(d)

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> "Schedule":
        """Raise :class:`ScheduleValidationError` on any defect; return self.

        O(steps): one worklist sweep runs every rank and tallies structure,
        fold operands and channel balance as it goes; only a schedule it
        leaves flagged, stuck or unbalanced is swept again, by
        :meth:`_check_steps`, to name the defect.
        """
        self._check_header()
        self._sweep()
        return self

    def _check_header(self) -> None:
        if self.collective not in ("reduce", "bcast", "allreduce", "barrier"):
            raise ScheduleValidationError(
                "unknown collective %r" % (self.collective,))
        if self.nranks < 1:
            raise ScheduleValidationError("nranks must be >= 1")
        if not (0 <= self.root < self.nranks):
            raise ScheduleValidationError(
                "root %d out of range for %d ranks" % (self.root, self.nranks))
        if self.nseg < 0:
            raise ScheduleValidationError("nseg must be >= 0")
        if len(self.steps) != self.nranks:
            raise ScheduleValidationError(
                "schedule has %d rank step lists for %d ranks"
                % (len(self.steps), self.nranks))

    def _check_steps(self) -> None:
        """Name the structure, matching or fold defect of a schedule the
        sweep flagged — three checks, one sweep, one dispatch on
        ``type(step)`` per step.

        A structure defect raises where it is met (nothing outranks it).
        Matching needs every step, so it is judged after the sweep; the
        first fold defect met is only remembered and raised if matching
        holds, which keeps the precedence of three separate sweeps.
        """
        nranks = self.nranks
        valid_segs = frozenset(range(self.nseg) if self.nseg else (-1,))
        balance: dict = {}      # channel key -> sends minus receives
        fold_defect = None
        for me, rank in enumerate(self.steps):
            unfolded: dict = {}     # (child, seg) -> receives not yet folded
            for step in rank:
                kind = type(step)
                if kind is WaitStep:
                    peers = step.children
                    if not peers:
                        raise ScheduleValidationError(
                            "rank %d: WaitStep with no children" % me)
                    if len(set(peers)) != len(peers):
                        # One contribution per child: the AB route posts
                        # one descriptor slot per *distinct* child.
                        raise ScheduleValidationError(
                            "rank %d: WaitStep lists child %d twice"
                            % (me, next(c for i, c in enumerate(peers)
                                        if c in peers[:i])))
                    for peer in peers:
                        key = ("p2p", peer, me, step.seg)
                        balance[key] = balance.get(key, 0) - 1
                else:
                    if kind is SendStep:
                        peer = step.peer
                        key = ("p2p", me, peer, step.seg)
                        balance[key] = balance.get(key, 0) + 1
                    elif kind is RecvStep:
                        peer = step.peer
                        key = ("p2p", peer, me, step.seg)
                        balance[key] = balance.get(key, 0) - 1
                        operand = (peer, step.seg)
                        unfolded[operand] = unfolded.get(operand, 0) + 1
                    elif kind is FoldStep:
                        peer = step.child
                        operand = (peer, step.seg)
                        have = unfolded.get(operand, 0)
                        if have:
                            unfolded[operand] = have - 1
                        elif fold_defect is None:
                            fold_defect = (me, peer, step.seg)
                    elif kind is BcastStep:
                        peer = step.peer
                        if step.direction == "send":
                            key = ("bc", me, peer, step.seg)
                            balance[key] = balance.get(key, 0) + 1
                        else:
                            key = ("bc", peer, me, step.seg)
                            balance[key] = balance.get(key, 0) - 1
                    else:
                        raise ScheduleValidationError(
                            "rank %d: unknown step %r" % (me, step))
                    peers = (peer,)
                for peer in peers:
                    if not (0 <= peer < nranks):
                        raise ScheduleValidationError(
                            "rank %d: peer %d out of range in %r"
                            % (me, peer, step))
                    if peer == me:
                        raise ScheduleValidationError(
                            "rank %d: self-referential step %r" % (me, step))
                if step.seg not in valid_segs:
                    raise ScheduleValidationError(
                        "rank %d: segment id %d invalid for nseg=%d in %r"
                        % (me, step.seg, self.nseg, step))
        if any(balance.values()):
            for what, sign in (("receive without a matching send", -1),
                               ("send without a matching receive", 1)):
                unmatched = [k for k, v in balance.items() if v * sign > 0]
                if unmatched:
                    channel, src, dst, seg = min(unmatched)
                    raise ScheduleValidationError(
                        "%s: channel=%s %d->%d seg=%d (%d unmatched key(s))"
                        % (what, channel, src, dst, seg, len(unmatched)))
        if fold_defect is not None:
            raise ScheduleValidationError(
                "rank %d: fold of child %d seg %d has no unconsumed receive"
                % fold_defect)

    def _sweep(self) -> None:
        """Abstractly execute all ranks; sends buffer, receives block.
        The receive rule (module docstring) is run as a rewrite: a
        ``RecvStep`` the cursor meets with a ``SendStep`` right behind it
        trades places with it, so every receive then blocks where it stands.

        A worklist: a rank runs until it blocks on one channel key
        ``(channel, src, me, seg)``, is parked under that key, and is
        queued again only by the send that lands on it.  Sends never block
        and every key has exactly one consumer (its ``me``), so a step that
        can run in some order can run in every order: the set of steps that
        complete — hence the stuck set and the message — does not depend on
        who is visited when, and each step is visited O(1) times.  A
        :class:`WaitStep` takes its children's contributions one at a time
        in order, which completes exactly when all of them arrive.

        As a step completes the sweep tallies the rest of validation.  A
        fold takes a receive its rank completed; a wait lists each child
        once; a send is checked for a self-edge and its segment.  A
        receive reads only the key a send wrote, so a receive from itself,
        out of range or on a bad segment either matches a flagged send or
        never completes, and a send out of range is never received: a
        stuck rank or a leftover count shows it.  A flag never stops a
        rank, so when :meth:`_check_steps` finds nothing the stuck set is
        the deadlock's.
        """
        nranks = self.nranks
        valid_segs = frozenset(range(self.nseg) if self.nseg else (-1,))
        steps = list(self.steps)
        cursors = [0] * nranks
        channels: dict = {}     # key -> messages sent and not yet received
        unfolded: dict = {}     # p2p key -> receives not yet folded
        parked: dict = {}       # key -> the rank blocked on it
        taken: dict = {}        # rank parked inside a WaitStep -> children done
        flawed = False          # a defect no stuck rank or leftover shows
        ready = list(range(nranks))
        while ready:
            me = ready.pop()
            rank = steps[me]
            i = cursors[me]
            while i < len(rank):
                step = rank[i]
                kind = type(step)
                if (kind is RecvStep and i + 1 < len(rank)
                        and type(rank[i + 1]) is SendStep):
                    if type(rank) is tuple:     # copy on first rewrite
                        rank = steps[me] = list(rank)
                    rank[i], rank[i + 1] = rank[i + 1], step
                    step, kind = rank[i], SendStep
                if kind is SendStep or (kind is BcastStep
                                        and step.direction == "send"):
                    peer, seg = step.peer, step.seg
                    if peer == me or seg not in valid_segs:
                        flawed = True
                    key = ("p2p" if kind is SendStep else "bc", me, peer, seg)
                    channels[key] = channels.get(key, 0) + 1
                    waiter = parked.pop(key, None)
                    if waiter is not None:
                        ready.append(waiter)
                elif kind is FoldStep:
                    key = ("p2p", step.child, me, step.seg)
                    have = unfolded.get(key, 0)
                    if have:
                        unfolded[key] = have - 1
                    else:
                        flawed = True
                elif kind is RecvStep or kind is BcastStep:
                    key = ("p2p" if kind is RecvStep else "bc",
                           step.peer, me, step.seg)
                    have = channels.get(key, 0)
                    if not have:
                        parked[key] = me
                        break
                    channels[key] = have - 1
                    if kind is RecvStep:
                        unfolded[key] = unfolded.get(key, 0) + 1
                elif kind is WaitStep:
                    children = step.children
                    if not children or len(set(children)) < len(children):
                        flawed = True
                    j = taken.pop(me, 0)
                    while j < len(children):
                        key = ("p2p", children[j], me, step.seg)
                        have = channels.get(key, 0)
                        if not have:
                            parked[key] = me
                            if j:
                                taken[me] = j
                            break
                        channels[key] = have - 1
                        j += 1
                    if j < len(children):
                        break
                else:
                    break               # unknown: the rank stays stuck
                i += 1
            cursors[me] = i
        stuck = [me for me in range(nranks) if cursors[me] < len(steps[me])]
        if flawed or stuck or any(channels.values()):
            self._check_steps()
            me = stuck[0]
            raise ScheduleValidationError(
                "deadlock: %d rank(s) blocked forever (rank %d stuck at %r)"
                % (len(stuck), me, steps[me][cursors[me]]))


def reduce_neighbors(steps):
    """``(parent, children)`` of the rank whose ``steps`` these are, read off
    its reduce phase.

    The parent is the peer of the first :class:`SendStep` (None where
    nothing is sent on: the root); children appear in first-occurrence order
    across :class:`FoldStep`/:class:`WaitStep`.
    """
    parent: Optional[int] = None
    children: dict = {}
    for step in steps:
        kind = type(step)
        if kind is SendStep:
            if parent is None:
                parent = step.peer
        elif kind is FoldStep:
            children[step.child] = None
        elif kind is WaitStep:
            for child in step.children:
                children[child] = None
    return parent, tuple(children)


def bcast_children(steps) -> tuple:
    """The peers the rank whose ``steps`` these are forwards a broadcast
    to, in first-send order (deepest subtree first for the tree lowerings)."""
    return tuple(dict.fromkeys(
        step.peer for step in steps
        if type(step) is BcastStep and step.direction == "send"))
