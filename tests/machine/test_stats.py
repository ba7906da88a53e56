"""NodeStats bookkeeping."""

from repro.machine import NodeStats
from repro.machine.stats import COUNTER_FIELDS, aggregate


def test_record_copy():
    s = NodeStats()
    s.record_copy(100)
    s.record_copy(50)
    assert s.copies == 2
    assert s.bytes_copied == 150


def test_merged_with_sums_fields():
    a = NodeStats(copies=1, packets_sent=5)
    b = NodeStats(copies=2, packets_sent=7, interrupts=3)
    c = a.merged_with(b)
    assert c.copies == 3
    assert c.packets_sent == 12
    assert c.interrupts == 3
    # originals untouched
    assert a.copies == 1


def test_aggregate_many():
    parts = [NodeStats(msgs_sent=i) for i in range(5)]
    total = aggregate(parts)
    assert total.msgs_sent == 10


def test_aggregate_builds_one_total_equal_to_pairwise_merges(monkeypatch):
    parts = [NodeStats(**{name: 3 * i + k for k, name in enumerate(COUNTER_FIELDS)})
             for i in range(3)]
    merged = NodeStats()
    for p in parts:
        merged = merged.merged_with(p)
    built = []
    init = NodeStats.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NodeStats, "__init__", counting_init)
    total = aggregate(parts)
    assert built == [total]
    assert total.as_dict() == merged.as_dict()
    assert parts[0].copies == 0 and parts[2].copies == 6  # inputs untouched
    assert aggregate([]).as_dict() == NodeStats().as_dict()


def test_as_dict_covers_all_fields():
    s = NodeStats()
    d = s.as_dict()
    assert d["copies"] == 0
    assert "hysteresis_dwells" in d
    assert "deferred_announcements" in d
    assert all(isinstance(v, int) for v in d.values())


def test_trace_noop_without_tracer():
    s = NodeStats()
    s.trace("layer", "event", detail=1)  # must not raise
