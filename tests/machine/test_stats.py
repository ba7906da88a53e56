"""NodeStats bookkeeping."""

import pytest

from repro.cluster import SPCluster
from repro.machine import NodeStats
from repro.machine.stats import COUNTER_FIELDS
from repro.obs import MetricsRegistry


def test_record_copy():
    s = NodeStats()
    s.record_copy(100)
    s.record_copy(50)
    assert s.copies == 2
    assert s.bytes_copied == 150


def test_keyword_values_seed_counters():
    s = NodeStats(copies=1, packets_sent=5)
    assert s.copies == 1 and s.packets_sent == 5 and s.interrupts == 0
    with pytest.raises(TypeError):
        NodeStats(bogus=1)
    with pytest.raises(TypeError):
        NodeStats(**{"lapi.amsend": 1})  # a registry name, not a field


def test_default_registry_holds_exactly_the_fields():
    s = NodeStats()
    assert s.registry.snapshot()["counters"] == dict.fromkeys(sorted(COUNTER_FIELDS), 0)


def test_given_registry_gains_missing_fields_and_keeps_its_metrics():
    reg = MetricsRegistry(counters=("copies", "lapi.amsend"))
    reg.counter("copies").incr(4)
    s = NodeStats(reg)
    assert s.registry is reg
    assert s.copies == 4
    assert set(reg.snapshot()["counters"]) == set(COUNTER_FIELDS) | {"lapi.amsend"}
    s.polls = 3
    assert reg.counter_value("polls") == 3


def test_run_result_stats_sum_the_nodes_on_first_read():
    cluster = SPCluster(3, stack="native")

    def program(comm, rank, size):
        if rank == 0:
            for dst in (1, 2):
                yield from comm.send(bytes(300), dest=dst)
        else:
            yield from comm.recv(bytearray(300), source=0)

    res = cluster.run(program)
    assert "stats" not in vars(res)  # nothing built until read
    expected = {name: sum(getattr(s, name) for s in cluster.node_stats)
                for name in COUNTER_FIELDS}
    assert res.stats.as_dict() == expected
    assert res.stats is res.stats
    assert res.stats.msgs_sent == 2 and res.stats.copies > 0
    # a later run moves the nodes' counters, not this result
    cluster.run(program)
    assert res.stats.as_dict() == expected


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
