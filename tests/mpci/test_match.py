"""Unit + property tests for envelope matching."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpci import (
    ANY_SOURCE,
    ANY_TAG,
    EarlyArrivalQueue,
    Envelope,
    Matcher,
    PostedReceiveQueue,
    envelope_matches,
)


def test_exact_match():
    env = Envelope(context=5, src=2, tag=9)
    assert envelope_matches(5, 2, 9, env)


def test_context_must_match_even_with_wildcards():
    env = Envelope(context=5, src=2, tag=9)
    assert not envelope_matches(6, ANY_SOURCE, ANY_TAG, env)


def test_wildcards():
    env = Envelope(context=1, src=3, tag=7)
    assert envelope_matches(1, ANY_SOURCE, 7, env)
    assert envelope_matches(1, 3, ANY_TAG, env)
    assert envelope_matches(1, ANY_SOURCE, ANY_TAG, env)
    assert not envelope_matches(1, 4, ANY_TAG, env)
    assert not envelope_matches(1, ANY_SOURCE, 8, env)


def test_posted_queue_fifo_match_and_inspection_count():
    q = PostedReceiveQueue()
    q.post(1, 0, 5, "r1")
    q.post(1, 0, 6, "r2")
    q.post(1, 0, 5, "r3")
    handle, inspected = q.match(Envelope(1, 0, 5))
    assert handle == "r1"
    assert inspected == 1
    handle, inspected = q.match(Envelope(1, 0, 5))
    assert handle == "r3"
    assert inspected == 2
    assert len(q) == 1


def test_posted_queue_no_match():
    q = PostedReceiveQueue()
    q.post(1, 0, 5, "r1")
    handle, inspected = q.match(Envelope(1, 0, 99))
    assert handle is None
    assert inspected == 1
    assert len(q) == 1


def test_posted_queue_wildcard_recv_matches_any():
    q = PostedReceiveQueue()
    q.post(1, ANY_SOURCE, ANY_TAG, "rw")
    handle, _ = q.match(Envelope(1, 7, 123))
    assert handle == "rw"


def test_posted_queue_cancel():
    q = PostedReceiveQueue()
    q.post(1, 0, 5, "r1")
    assert q.remove("r1")
    assert not q.remove("r1")
    assert len(q) == 0


def test_early_queue_fifo_order_is_matching_order():
    q = EarlyArrivalQueue()
    q.add(Envelope(1, 0, 5), "m1")
    q.add(Envelope(1, 0, 5), "m2")
    got, _ = q.match(1, 0, 5)
    assert got == (Envelope(1, 0, 5), "m1")
    got, _ = q.match(1, ANY_SOURCE, ANY_TAG)
    assert got == (Envelope(1, 0, 5), "m2")
    assert len(q) == 0


def test_early_queue_peek_is_non_destructive():
    q = EarlyArrivalQueue()
    q.add(Envelope(1, 2, 3), "m")
    got, _ = q.peek_match(1, ANY_SOURCE, 3)
    assert got is not None
    assert len(q) == 1


def test_early_queue_no_match_returns_none():
    q = EarlyArrivalQueue()
    q.add(Envelope(1, 2, 3), "m")
    got, inspected = q.match(2, ANY_SOURCE, ANY_TAG)
    assert got is None
    assert inspected == 1


envelopes = st.builds(
    Envelope,
    context=st.integers(min_value=0, max_value=3),
    src=st.integers(min_value=0, max_value=3),
    tag=st.integers(min_value=0, max_value=3),
)


@given(st.lists(envelopes, max_size=30), envelopes)
def test_match_returns_earliest_matching_entry(entries, probe):
    """Property: EA matching always returns the first (oldest) match —
    the non-overtaking guarantee."""
    q = EarlyArrivalQueue()
    for i, env in enumerate(entries):
        q.add(env, i)
    got, _ = q.match(probe.context, probe.src, probe.tag)
    expected = next(
        (
            (env, i)
            for i, env in enumerate(entries)
            if envelope_matches(probe.context, probe.src, probe.tag, env)
        ),
        None,
    )
    assert got == expected


@given(st.lists(envelopes, max_size=30))
def test_posted_and_early_queues_conserve_entries(entries):
    """Matching with the exact envelope drains queues completely and in
    insertion order."""
    q = EarlyArrivalQueue()
    for i, env in enumerate(entries):
        q.add(env, i)
    seen = []
    for env in entries:
        got, _ = q.match(env.context, env.src, env.tag)
        assert got is not None
        seen.append(got[1])
    assert len(q) == 0
    # every handle seen exactly once
    assert sorted(seen) == list(range(len(entries)))


# ------------------------------------------------------------- Matcher
def test_matcher_view_names_queued_and_bound_state():
    m = Matcher()
    assert m.post(0, 1, ANY_TAG, "r") is None
    assert m.arrive(Envelope(0, 2, 5), "m2") == (None, 1)
    m.bind(3, 7, "rdv", Envelope(0, 3, 9))
    v = m.view()
    assert v.posted == (Envelope(0, 1, ANY_TAG),)
    assert v.early == (Envelope(0, 2, 5),)
    assert v.bound == ((3, 7, Envelope(0, 3, 9)),)
    assert v.stranded() == []
    assert m.claim(3, 7) == ("rdv", Envelope(0, 3, 9))
    assert m.claim(3, 7) is None
    # a ready-mode arrival is matched or nothing: never queued
    assert m.arrive(Envelope(0, 2, 6), "ready", queue=False) == (None, 1)
    assert m.view().early == (Envelope(0, 2, 5),)


def test_matcher_view_flags_a_pair_filled_behind_its_back():
    m = Matcher()
    m.posted.post(0, ANY_SOURCE, 4, "r")
    m.early.add(Envelope(0, 1, 4), "msg")
    assert m.view().stranded() == [(Envelope(0, ANY_SOURCE, 4), Envelope(0, 1, 4))]
    assert "1 matchable pair(s) stranded" in m.view().describe()


_ctx = st.integers(0, 1)
_src = st.integers(0, 1)
_tag = st.integers(0, 1)
_ops = st.lists(st.one_of(
    # a receive probes the early queue (and may later commit)
    st.tuples(st.just("recv"), _ctx, st.sampled_from([0, 1, ANY_SOURCE]),
              st.sampled_from([0, 1, ANY_TAG])),
    st.tuples(st.just("commit_recv"), st.integers(0, 7)),
    # a message arrives: probe the posted queue first (native, which
    # then yields) or commit at once (a LAPI header handler)
    st.tuples(st.just("send"), _ctx, _src, _tag, st.booleans()),
    st.tuples(st.just("commit_arrival")),
), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_matcher_probe_commit_interleavings(ops):
    """Random interleavings of probe/commit on both sides, with
    wildcards and two contexts.  After every step: no posted receive
    matches an early arrival, and every match respects send order per
    (context, src) and post order among posted receives.

    Receives may sit between probe and commit in any number (several
    threads on one node); arrivals are announced one at a time, as one
    node's dispatcher does.
    """
    m = Matcher()
    sent: dict[tuple[int, int], int] = {}  # (ctx, src) -> next seq
    pending_recvs: list[tuple[tuple[int, int, int], int]] = []
    pending_arrival = None
    posted: list[tuple[tuple[int, int, int], int]] = []  # model, post order
    early: list[tuple[Envelope, int]] = []  # model, arrival order
    rids = iter(range(10**6))

    def matched(pattern, rid, env, seq, from_posted):
        # send order: no older message from the same (ctx, src) that
        # this receive also matches may still wait in the early queue
        for e, s in early:
            if (e.context, e.src) == (env.context, env.src) and s < seq:
                assert not envelope_matches(*pattern, e), (pattern, e, env)
        # post order: an earlier posted receive that matches wins
        if from_posted:
            i = next(i for i, (_p, r) in enumerate(posted) if r == rid)
            assert not any(envelope_matches(*p, env) for p, _r in posted[:i])
            del posted[i]

    def recv_claimed(pattern, rid, entry):
        env, seq = entry
        early.remove((env, seq))
        matched(pattern, rid, env, seq, from_posted=False)

    def arrival_claimed(env, seq, handle):
        pattern = next(p for p, r in posted if r == handle)
        matched(pattern, handle, env, seq, from_posted=True)

    def commit_arrival(env, seq):
        handle, _ = m.arrive(env, seq)
        if handle is None:
            early.append((env, seq))
        else:
            arrival_claimed(env, seq, handle)

    def step(op):
        nonlocal pending_arrival
        kind = op[0]
        if kind == "recv":
            pattern, rid = op[1:], next(rids)
            entry, _ = m.early.match(*pattern)
            if entry is None:
                pending_recvs.append((pattern, rid))
            else:
                recv_claimed(pattern, rid, entry)
        elif kind == "commit_recv" and pending_recvs:
            pattern, rid = pending_recvs.pop(op[1] % len(pending_recvs))
            entry = m.post(*pattern, rid)
            if entry is None:
                posted.append((pattern, rid))
            else:
                recv_claimed(pattern, rid, entry)
        elif kind == "send" and pending_arrival is None:
            _, ctx, src, tag, probe_first = op
            seq = sent.get((ctx, src), 0)
            sent[(ctx, src)] = seq + 1
            env = Envelope(ctx, src, tag)
            if not probe_first:
                commit_arrival(env, seq)
                return
            handle, _ = m.posted.match(env)
            if handle is None:
                pending_arrival = (env, seq)
            else:
                arrival_claimed(env, seq, handle)
        elif kind == "commit_arrival" and pending_arrival is not None:
            env, seq = pending_arrival
            pending_arrival = None
            commit_arrival(env, seq)

    def check():
        v = m.view()
        assert v.stranded() == []
        assert v.posted == tuple(Envelope(*p) for p, _r in posted)
        assert v.early == tuple(e for e, _s in early)

    for op in ops:
        step(op)
        check()
    # drain: every probe that started gets its commit
    step(("commit_arrival",))
    check()
    while pending_recvs:
        step(("commit_recv", 0))
        check()
