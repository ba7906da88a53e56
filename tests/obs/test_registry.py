"""The metrics registry: typed instruments, snapshots, merging."""

import json
import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.registry import merge_snapshots


# ------------------------------------------------------------- counters
def test_counter_incr_and_set():
    r = MetricsRegistry()
    c = r.counter("x")
    c.incr()
    c.incr(4)
    assert c.value == 5
    c.set(2)
    assert r.counter("x").value == 2  # get-or-create returns the same object
    assert r.counter("x") is c


def test_counter_value_of_untouched_name_is_zero():
    r = MetricsRegistry()
    assert r.counter_value("never.created") == 0
    assert "never.created" not in r.snapshot()["counters"]


# --------------------------------------------------------------- gauges
def test_gauge_tracks_high_water():
    r = MetricsRegistry()
    g = r.gauge("depth")
    g.set(3)
    g.set(7)
    g.set(1)
    assert g.value == 1
    assert g.high_water == 7
    g.add(10)
    assert g.value == 11
    assert g.high_water == 11
    g.add(-11)
    assert g.value == 0
    assert g.high_water == 11


# ----------------------------------------------------------- histograms
def test_histogram_log2_bucket_edges():
    # bucket 0 holds x < 1; bucket i holds [2^(i-1), 2^i)
    assert Histogram.bucket_index(0.0) == 0
    assert Histogram.bucket_index(0.999) == 0
    assert Histogram.bucket_index(1.0) == 1
    assert Histogram.bucket_index(1.999) == 1
    assert Histogram.bucket_index(2.0) == 2
    assert Histogram.bucket_index(3.999) == 2
    assert Histogram.bucket_index(4.0) == 3


def test_histogram_observe_clamps_to_last_bucket():
    r = MetricsRegistry()
    h = r.histogram("lat", nbuckets=4)
    h.observe(1e12)
    assert h.buckets[-1] == 1
    assert h.count == 1


def test_histogram_rejects_negative():
    h = MetricsRegistry().histogram("lat")
    with pytest.raises(ValueError):
        h.observe(-0.5)


def test_histogram_sum_and_count():
    h = MetricsRegistry().histogram("lat")
    for x in (0.5, 1.5, 1.5, 100.0):
        h.observe(x)
    assert h.count == 4
    assert math.isclose(h.total, 103.5)
    assert sum(h.buckets) == 4


# ----------------------------------------------------- name collisions
def test_cross_type_name_collision_raises():
    r = MetricsRegistry()
    r.counter("x")
    with pytest.raises(ValueError):
        r.gauge("x")
    with pytest.raises(ValueError):
        r.histogram("x")


# ------------------------------------------------------------ snapshots
def test_snapshot_is_sorted_and_json_able():
    r = MetricsRegistry()
    r.counter("b").incr()
    r.counter("a").incr(2)
    r.gauge("g").set(5)
    r.histogram("h").observe(3.0)
    snap = r.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    assert snap["gauges"]["g"] == {"value": 5, "high_water": 5}
    assert snap["histograms"]["h"]["count"] == 1
    json.dumps(snap)  # must not raise


def test_snapshot_is_a_copy():
    r = MetricsRegistry()
    r.counter("a").incr()
    snap = r.snapshot()
    r.counter("a").incr()
    assert snap["counters"]["a"] == 1


# --------------------------------------------------------------- schema
def test_schema_metrics_exist_up_front_and_are_looked_up():
    r = MetricsRegistry(counters=("a", "b"), gauges=("g",))
    a = r.counter("a")
    assert r.counter("a") is a and r.gauge("g") is r.gauge("g")
    assert r.snapshot() == {
        "counters": {"a": 0, "b": 0},
        "gauges": {"g": {"value": 0, "high_water": 0}},
        "histograms": {},
    }
    with pytest.raises(ValueError):
        r.gauge("a")  # the schema's types hold for later lookups


def test_schema_rejects_a_name_of_both_types():
    with pytest.raises(ValueError):
        MetricsRegistry(counters=("x",), gauges=("x",))


# -------------------------------------------------------------- merging
def test_merged_sums_counters_and_histograms_maxes_high_water():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").incr(2)
    b.counter("c").incr(3)
    b.counter("only_b").incr()
    a.gauge("g").set(10)
    b.gauge("g").set(4)
    a.histogram("h").observe(1.0)
    b.histogram("h").observe(2.0)
    snap = merge_snapshots([a.snapshot(), b.snapshot()])
    assert snap["counters"] == {"c": 5, "only_b": 1}
    assert snap["gauges"]["g"] == {"value": 14, "high_water": 10}
    assert snap["histograms"]["h"]["count"] == 2
    assert snap["histograms"]["h"]["sum"] == 3.0
    json.dumps(snap)


def test_merge_of_nothing_is_empty_and_inputs_are_not_aliased():
    assert merge_snapshots([]) == {"counters": {}, "gauges": {}, "histograms": {}}
    r = MetricsRegistry()
    r.histogram("h").observe(3.0)
    one = r.snapshot()
    merged = merge_snapshots([one])
    assert merged == one
    merged["histograms"]["h"]["buckets"][2] += 1
    assert one["histograms"]["h"]["buckets"][2] == 1


def test_merge_rejects_histograms_with_different_bucket_counts():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", nbuckets=4)
    b.histogram("h", nbuckets=8)
    with pytest.raises(ValueError):
        merge_snapshots([a.snapshot(), b.snapshot()])
