"""Property-based tests for the matching/descriptor/unexpected queues and
the event queue."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.descriptor import DescriptorQueue, ReduceDescriptor
from repro.core.unexpected import AbUnexpectedQueue
from repro.mpich.matching import MatchingEngine
from repro.mpich.message import AbHeader, Envelope, TransferKind
from repro.mpich.operations import SUM
from repro.sim.events import EventQueue


# ---------------------------------------------------------------------------
# EventQueue: pops are a stable sort by time
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), max_size=200))
def test_event_queue_stable_time_order(times):
    q = EventQueue()
    for i, t in enumerate(times):
        q.push(t, lambda: None, (i,))
    popped = []
    while (ev := q.pop()) is not None:
        popped.append((ev.time, ev.args[0]))
    # sorted by time; equal times keep insertion order (seq stable)
    assert popped == sorted(popped, key=lambda p: (p[0],))
    by_time: dict[float, list[int]] = {}
    for t, i in popped:
        by_time.setdefault(t, []).append(i)
    for indices in by_time.values():
        assert indices == sorted(indices)


# ---------------------------------------------------------------------------
# AbUnexpectedQueue: per-sender FIFO, conservation
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=0, max_value=4), max_size=60))
def test_ab_unexpected_per_sender_fifo(senders):
    q = AbUnexpectedQueue()
    counters: dict[int, int] = {}
    for src in senders:
        inst = counters.get(src, 0)
        counters[src] = inst + 1
        q.put(src, AbHeader(root=0, instance=inst), np.zeros(1), 0.0)
    for src, total in counters.items():
        for expect in range(total):
            entry = q.take(src)
            assert entry is not None
            assert entry.header.instance == expect
        assert q.take(src) is None
    assert q.empty
    assert q.inserted == q.consumed == len(senders)


# ---------------------------------------------------------------------------
# DescriptorQueue: every packet feeds the descriptor of its own identity
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1,
                max_size=12), st.randoms(use_true_random=False))
def test_descriptor_queue_matches_each_packet_to_its_instance(child_counts,
                                                               rnd):
    """Per-child deliveries in any interleaving — one child's instances
    late, another's early — fold each packet into its own instance's
    descriptor, and only once."""
    q = DescriptorQueue()
    descs = []
    for inst, k in enumerate(child_counts):
        d = ReduceDescriptor(context_id=1, root_world=0, instance=inst,
                             parent_world=0,
                             children_world=list(range(1, k + 1)), op=SUM,
                             acc=np.zeros(1), created_at=0.0)
        q.push(d)
        descs.append(d)
    packets = [(child, d.instance) for d in descs
               for child in d.children_world]
    rnd.shuffle(packets)
    for child, inst in packets:
        match = q.match(child, 1, inst, -1)
        assert match is descs[inst]
        match.mark_done(child)
        assert q.match(child, 1, inst, -1) is None
        if match.complete:
            q.remove(match)
    assert q.empty


# ---------------------------------------------------------------------------
# MatchingEngine: conservation and FIFO under random interleavings
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["arrive", "post"]),
                          st.integers(min_value=0, max_value=2)),
                max_size=60))
def test_matching_engine_conserves_messages(ops):
    """Random interleavings of arrivals and posts: every arrival is
    eventually delivered exactly once, in per-(source,tag) FIFO order."""
    from repro.mpich.matching import PostedRecv
    from repro.mpich.requests import Request

    engine = MatchingEngine()
    sent: dict[int, int] = {}       # src -> sequence counter
    delivered: dict[int, list[int]] = {}
    outstanding: list[tuple[int, Request, np.ndarray]] = []

    def make_env(src):
        seq = sent.get(src, 0)
        sent[src] = seq + 1
        return Envelope(src=src, dst=0, tag=7, context_id=1,
                        kind=TransferKind.EAGER,
                        data=np.array([float(seq)]), nbytes=8)

    for op, src in ops:
        if op == "arrive":
            env = make_env(src)
            posted = engine.find_posted(env)
            if posted is not None:
                posted.buffer[:] = env.data
                delivered.setdefault(env.src, []).append(int(env.data[0]))
            else:
                engine.store_unexpected(env)
        else:
            buf = np.zeros(1)
            entry = engine.take_unexpected(src, 7, 1)
            if entry is not None:
                delivered.setdefault(src, []).append(
                    int(entry.data[0]))
            else:
                req = Request("recv")
                engine.add_posted(PostedRecv(src, 7, 1, buf, req, 0.0))
                outstanding.append((src, req, buf))

    # drain: arrivals for every receive still posted (not already matched)
    still_posted = {p.request.seq for p in engine.posted}
    for src, req, buf in outstanding:
        if req.seq not in still_posted:
            continue
        env = make_env(src)
        posted = engine.find_posted(env)
        assert posted is not None
        posted.buffer[:] = env.data
        delivered.setdefault(src, []).append(int(env.data[0]))
    # and posts for every still-queued unexpected message
    while engine.unexpected:
        env = engine.unexpected[0]
        entry = engine.take_unexpected(env.src, 7, 1)
        delivered.setdefault(env.src, []).append(int(entry.data[0]))

    for src, count in sent.items():
        assert delivered.get(src, []) == list(range(count))
