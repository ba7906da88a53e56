"""Causal span trees: coverage, determinism, and breakdown consistency."""

import warnings
from collections import Counter

import pytest

from repro.cluster import SPCluster
from repro.faults import builtin_plan
from repro.obs import (
    TruncatedTraceError,
    build_span_trees,
    capture,
    lapi_breakdowns,
    pipes_breakdowns,
    render_text,
)
from repro.obs.spans import TRACKS, _DATA_LEGS
from repro.trace import Tracer

LAPI_STACKS = ("lapi-base", "lapi-counters", "lapi-enhanced")
ALL_STACKS = LAPI_STACKS + ("native",)
SIZES = (256, 16384)  # eager and rendezvous
#: inputs where pairing records with their leg can go wrong:
#: interrupt-driven delivery, repeated pkt_rx/pkt_tx records under
#: duplicates and losses, and a 4-node fan-in whose senders share
#: message numbers at the receiver
CASES = SIZES + ("interrupt", "duplicate-storm", "loss-burst", "fan-in")


def _fan_in(stack):
    """Ranks 1-3 each send 5000 B to rank 0, staggered by 3 us."""
    cluster = SPCluster(4, stack=stack, trace=True)

    def program(comm, rank, size):
        yield from comm.barrier()
        if rank == 0:
            reqs = []
            for src in range(1, size):
                r = yield from comm.irecv(bytearray(5000), source=src)
                reqs.append(r)
            yield from comm.waitall(reqs)
        else:
            yield from comm.backend.cpu.execute("user", 3.0 * rank)
            yield from comm.send(bytes([rank]) * 5000, dest=0)

    cluster.run(program)
    return cluster


def _capture(stack, case):
    if case in SIZES:
        return capture(stack, case, reps=3)
    if case == "interrupt":
        return capture(stack, 256, mode="interrupt", reps=3)
    if case == "fan-in":
        return _fan_in(stack)
    return capture(stack, 3000, reps=3, seed=3, fault_plan=builtin_plan(case))


@pytest.fixture(scope="module")
def captures():
    return {(stack, case): _capture(stack, case)
            for stack in ALL_STACKS for case in CASES}


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("case", CASES)
def test_no_orphans_and_complete(captures, stack, case):
    trees = build_span_trees(captures[stack, case].tracer)
    assert trees
    for mid, tree in trees.items():
        assert tree.orphans == [], (stack, case, mid, tree.orphans)
        assert tree.complete, (stack, case, mid)


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("case", CASES)
def test_every_mid_record_lands_in_a_tree(captures, stack, case):
    tracer = captures[stack, case].tracer
    trees = build_span_trees(tracer)
    with_mid = [r for r in tracer.records if "mid" in r.fields]
    assert sum(len(t.records) for t in trees.values()) == len(with_mid)


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("case", CASES)
def test_reconstruction_is_byte_identical(captures, stack, case):
    tracer = captures[stack, case].tracer
    first = render_text(build_span_trees(tracer))
    second = render_text(build_span_trees(tracer))
    assert first == second
    assert first.strip()


@pytest.mark.parametrize("stack", ALL_STACKS)
@pytest.mark.parametrize("case", CASES)
def test_span_wellformedness(captures, stack, case):
    trees = build_span_trees(captures[stack, case].tracer)
    for tree in trees.values():
        for span, _depth in tree.root.walk():
            assert span.end >= span.start, span
            assert span.track in TRACKS, span
        for leg in tree.legs:
            assert tree.root.start <= leg.start <= leg.end <= tree.root.end


@pytest.mark.parametrize("stack", LAPI_STACKS)
@pytest.mark.parametrize("case", CASES)
def test_leaf_sum_matches_lapi_breakdowns(captures, stack, case):
    """Per message, leaf span durations sum to the Fig 10 total."""
    tracer = captures[stack, case].tracer
    trees = build_span_trees(tracer)
    by_mid = {}
    for b in lapi_breakdowns(tracer):
        by_mid[b.mid] = by_mid.get(b.mid, 0.0) + b.end_to_end
    assert by_mid
    for mid, total in by_mid.items():
        assert trees[mid].leaf_total == pytest.approx(total, abs=1e-9), mid


@pytest.mark.parametrize("case", CASES)
def test_leaf_sum_matches_pipes_breakdowns(captures, case):
    """Native: the data legs' leaves sum to the Fig 10 total (control
    frames — cts, bfree — have wire time the breakdown never counts)."""
    tracer = captures["native", case].tracer
    trees = build_span_trees(tracer)
    by_mid = {}
    for b in pipes_breakdowns(tracer):
        by_mid[b.mid] = by_mid.get(b.mid, 0.0) + b.end_to_end
    assert by_mid
    for mid, total in by_mid.items():
        data_leaves = sum(
            s.duration
            for leg in trees[mid].legs
            if leg.name in _DATA_LEGS
            for s in leg.leaves()
        )
        assert data_leaves == pytest.approx(total, abs=1e-9), mid


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_hard_cases_exercise_what_they_claim(captures, stack):
    """The extra inputs really repeat packet records and reuse message
    numbers across senders, so the assertions above are not vacuous."""
    def repeats(tracer, event):
        """Most records of one data packet (acks carry no ``seq``)."""
        seen = Counter((r.node, r.fields.get("src"), r.fields.get("dst"),
                        r.fields["seq"])
                       for r in tracer.filter(layer="adapter", event=event)
                       if "seq" in r.fields)
        return max(seen.values())

    dup = captures[stack, "duplicate-storm"].tracer
    assert repeats(dup, "pkt_rx") > 1
    loss = captures[stack, "loss-burst"].tracer
    assert loss.filter(layer="fault", event="drop")
    assert repeats(loss, "pkt_tx") > 1

    number = "fid" if stack == "native" else "msg"
    senders = {}
    for r in captures[stack, "fan-in"].tracer.filter(
            node=0, layer="adapter", event="pkt_rx"):
        if number in r.fields:
            senders.setdefault(r.fields[number], set()).add(r.fields["src"])
    assert max(len(s) for s in senders.values()) > 1


def test_rendezvous_has_handshake_legs(captures):
    trees = build_span_trees(captures["lapi-enhanced", 16384].tracer)
    names = {leg.name for t in trees.values() for leg in t.legs}
    assert {"rts", "rts_ack", "rdata"} <= names


def test_eager_is_single_leg(captures):
    trees = build_span_trees(captures["lapi-enhanced", 256].tracer)
    for tree in trees.values():
        assert [leg.name for leg in tree.legs] == ["eager"]


def test_base_variant_completion_rides_the_cmpl_track(captures):
    trees = build_span_trees(captures["lapi-base", 256].tracer)
    leaves = [s for t in trees.values() for s in t.root.leaves()]
    switches = [s for s in leaves if s.name == "thread_switch"]
    assert switches and all(s.track == "cmpl" for s in switches)
    assert all(s.duration > 0 for s in switches)


# -------------------------------------------------------- interrupt mode
def test_interrupt_dwell_is_its_own_phase():
    """Fig 13 methodology: native hysteresis dwell shows up as the
    ``interrupt`` phase, both in the spans and in the breakdowns."""
    cluster = capture("native", 8192, mode="interrupt", reps=2)
    trees = build_span_trees(cluster.tracer)
    intr = [
        s for t in trees.values() for s in t.root.leaves()
        if s.name == "interrupt"
    ]
    assert sum(s.duration for s in intr) > 0.0
    downs = pipes_breakdowns(cluster.tracer)
    assert sum(b.phases["interrupt"] for b in downs) > 0.0
    # the dwell is carved out of copy, not double-counted
    for b in downs:
        assert sum(b.phases.values()) == pytest.approx(b.end_to_end, abs=1e-9)


def test_lapi_isr_has_no_hysteresis_dwell():
    cluster = capture("lapi-enhanced", 8192, mode="interrupt", reps=2)
    downs = lapi_breakdowns(cluster.tracer)
    assert downs
    assert all(b.phases["interrupt"] == 0.0 for b in downs)


# ------------------------------------------------------------ truncation
def test_truncated_capture_refuses_and_names_the_layer():
    class _Clock:
        now = 0.0

    t = Tracer(_Clock(), capacity=1)
    t.emit(0, "lapi", "amsend", msg=0, tgt=1, bytes=4)
    t.emit(0, "lapi", "amsend", msg=1, tgt=1, bytes=4)
    t.emit(0, "pipes", "frame_send", fid=0, dst=1, bytes=4)
    t.emit(0, "lapi", "pkt_tx", msg=0, bytes=4)
    assert t.dropped_by_layer == {"lapi": 2, "pipes": 1}
    with pytest.raises(TruncatedTraceError, match="lapi.*build_span_trees"):
        build_span_trees(t)
    # tolerated when asked — partial trees beat no trees
    with pytest.warns(RuntimeWarning, match="^build_span_trees read"):
        build_span_trees(t, allow_truncated=True)


def test_every_truncated_capture_warns():
    """Nothing in the library remembers an earlier warning: under
    ``always`` two truncated captures in one process each warn, and the
    message names the function that read them."""

    class _Clock:
        now = 0.0

    def truncated():
        t = Tracer(_Clock(), capacity=1)
        t.emit(0, "lapi", "amsend", msg=0, tgt=1, bytes=4)
        t.emit(0, "lapi", "amsend", msg=1, tgt=1, bytes=4)
        return t

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        build_span_trees(truncated(), allow_truncated=True)
        build_span_trees(truncated(), allow_truncated=True)
        lapi_breakdowns(truncated(), allow_truncated=True)
    assert [str(w.message).split(" read ")[0] for w in seen] == [
        "build_span_trees", "build_span_trees", "lapi_breakdowns"]
    assert all(w.category is RuntimeWarning and w.filename == __file__
               for w in seen)
