"""Perfetto/Chrome trace_event export of span trees."""

import json

import pytest

from repro.obs import build_span_trees, capture, to_chrome_trace, write_chrome_trace

VALID_PH = {"X", "i", "s", "f", "M"}


@pytest.fixture(scope="module")
def trees():
    return build_span_trees(capture("lapi-enhanced", 16384, reps=2).tracer)


@pytest.fixture(scope="module")
def trace(trees):
    return to_chrome_trace(trees)


def test_trace_event_structure(trace):
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    for ev in trace["traceEvents"]:
        assert ev["ph"] in VALID_PH, ev
        assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
        if ev["ph"] == "X":
            assert ev["dur"] >= 0.0
        if ev["ph"] != "M":
            assert ev["ts"] >= 0.0
    # round-trips through JSON (what Perfetto actually parses)
    json.loads(json.dumps(trace))


def test_process_and_thread_metadata(trace):
    meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    procs = {e["pid"]: e["args"]["name"] for e in meta
             if e["name"] == "process_name"}
    assert procs[0] == "fabric"
    assert procs[1] == "node 0" and procs[2] == "node 1"
    threads = {(e["pid"], e["tid"]): e["args"]["name"] for e in meta
               if e["name"] == "thread_name"}
    assert threads[(0, 1)] == "wire"
    assert threads[(1, 1)] == "user task"
    assert threads[(2, 2)] == "dispatcher"


def test_flow_arrows_pair_up(trace):
    starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
    ends = [e for e in trace["traceEvents"] if e["ph"] == "f"]
    assert starts
    assert {e["id"] for e in starts} == {e["id"] for e in ends}
    by_id = {e["id"]: e for e in starts}
    for fin in ends:
        assert fin["ts"] >= by_id[fin["id"]]["ts"]  # arrows go forward in time
        assert fin["pid"] != by_id[fin["id"]]["pid"]  # and cross nodes


def test_every_span_has_its_mid(trees, trace):
    xs = [e for e in trace["traceEvents"] if e["ph"] in ("X", "i")]
    assert xs
    assert all(e["args"].get("mid") in trees for e in xs)


def test_writer_is_deterministic(trees, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_chrome_trace(trees, a)
    write_chrome_trace(build_span_trees(
        capture("lapi-enhanced", 16384, reps=2).tracer), b)
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())
