"""The latency-breakdown profiler (paper Fig 10 as data)."""

import warnings

import pytest

from repro.cluster import SPCluster
from repro.obs import (
    PHASES,
    TruncatedTraceError,
    breakdown,
    lapi_breakdowns,
    pipes_breakdowns,
)
from repro.trace import Tracer

ALL_STACKS = ("lapi-base", "lapi-counters", "lapi-enhanced", "native")


@pytest.fixture(scope="module")
def breakdowns():
    return {
        stack: breakdown(stack, 256, reps=3) for stack in ALL_STACKS
    }


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_every_data_message_gets_a_breakdown(breakdowns, stack):
    summary, downs = breakdowns[stack]
    assert summary["count"] == 6  # 3 reps each way
    assert all(b.bytes == 256 for b in downs)


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_phases_partition_end_to_end(breakdowns, stack):
    _summary, downs = breakdowns[stack]
    for b in downs:
        assert set(b.phases) == set(PHASES)
        assert sum(b.phases.values()) == pytest.approx(b.end_to_end, abs=1e-9)
        assert all(v >= 0.0 for v in b.phases.values()), b.phases


def _staggered_fan_in(comm, rank, size):
    """Ranks 1..3 each send 64 B to rank 0, 100 us apart."""
    buf = bytearray(64)
    if rank == 0:
        for _ in range(size - 1):
            yield from comm.recv(buf)
    else:
        yield comm.backend.env.timeout(100.0 * rank)
        yield from comm.send(bytes(64), dest=0)


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_fan_in_pairs_each_message_with_its_own_sender(stack):
    """LAPI message numbers and Pipes frame ids are per origin: three
    senders' first data messages share a number at rank 0, and pairing
    by number alone gave later senders a wire time of -97/-197 us."""
    cl = SPCluster(4, stack=stack, trace=True)
    cl.run(_staggered_fan_in)
    per_stack = pipes_breakdowns if stack == "native" else lapi_breakdowns
    downs = [b for b in per_stack(cl.tracer) if b.bytes == 64]
    assert sorted(b.src for b in downs) == [1, 2, 3]
    for b in downs:
        assert all(v >= 0.0 for v in b.phases.values()), (b.src, b.phases)
        assert sum(b.phases.values()) == pytest.approx(b.end_to_end, abs=1e-9)
        assert b.end_to_end < 100.0, (b.src, b.end_to_end)


def test_base_pays_the_thread_switch(breakdowns):
    summary, _ = breakdowns["lapi-base"]
    assert summary["phases_us"]["thread_switch"] > 0.0


@pytest.mark.parametrize("stack", ["lapi-counters", "lapi-enhanced", "native"])
def test_only_base_pays_the_thread_switch(breakdowns, stack):
    summary, _ = breakdowns[stack]
    assert summary["phases_us"]["thread_switch"] == 0.0


def test_base_slowdown_is_mostly_the_switch(breakdowns):
    """The §5 claim, quantified: the Base-vs-Enhanced latency gap is
    dominated by the completion-handler context switch."""
    base, _ = breakdowns["lapi-base"]
    enh, _ = breakdowns["lapi-enhanced"]
    gap = base["end_to_end_us"] - enh["end_to_end_us"]
    assert base["phases_us"]["thread_switch"] > 0.75 * gap


def test_native_charges_copies_not_handlers(breakdowns):
    summary, _ = breakdowns["native"]
    ph = summary["phases_us"]
    assert ph["hdr_handler"] == 0.0
    assert ph["completion"] == 0.0
    assert ph["copy"] > 0.0


# ------------------------------------------------------------ truncation
def _truncated_tracer():
    class _Clock:
        now = 0.0

    t = Tracer(_Clock(), capacity=1)
    t.emit(0, "lapi", "amsend", msg=0, tgt=1, bytes=4)
    t.emit(0, "lapi", "amsend", msg=1, tgt=1, bytes=4)  # dropped
    assert t.dropped == 1
    return t


def test_truncated_trace_raises():
    with pytest.raises(TruncatedTraceError):
        lapi_breakdowns(_truncated_tracer())


def test_truncated_trace_warns_once_when_allowed():
    # the warnings filters deduplicate: under the default action a repeat
    # from the same call site is shown once
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("default")
        for _ in range(2):
            downs = lapi_breakdowns(_truncated_tracer(), allow_truncated=True)
    assert downs == []
    assert [w.category for w in seen] == [RuntimeWarning]
    assert str(seen[0].message).startswith("lapi_breakdowns read a truncated")
    assert seen[0].filename == __file__


def test_summarize_empty_is_all_zero():
    from repro.obs import summarize

    s = summarize([])
    assert s["count"] == 0
    assert all(v == 0.0 for v in s["phases_us"].values())
