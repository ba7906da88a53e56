"""``merge_snapshots`` equals the snapshot of one merged registry.

``SPCluster.metrics_snapshot`` builds its ``aggregate`` section by
merging the node snapshot dicts.  The reference here is the registry
merge it replaced: accumulate every node registry into a fresh
``MetricsRegistry`` (counters and histograms sum, gauges sum their
values and take the max high-water mark) and snapshot that.  The two
must agree in ``repr``, so an ``int`` that turns ``float`` or a ``-0.0``
that turns ``0.0`` fails too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.obs.registry import merge_snapshots

COUNTERS = [f"c{i}" for i in range(4)]
GAUGES = [f"g{i}" for i in range(4)]
HISTOGRAMS = [f"h{i}" for i in range(3)]


def reference_merge(registries) -> MetricsRegistry:
    out = MetricsRegistry()
    for reg in registries:
        for n, c in reg._counters.items():
            out.counter(n).incr(c.value)
        for n, g in reg._gauges.items():
            merged = out.gauge(n)
            merged.value += g.value
            merged.high_water = max(merged.high_water, g.high_water)
        for n, h in reg._histograms.items():
            m = out.histogram(n, h.nbuckets)
            assert m.nbuckets == h.nbuckets
            for i, b in enumerate(h.buckets):
                m.buckets[i] += b
            m.count += h.count
            m.total += h.total
    return out


numbers = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0, -1, 0.5]),
)


@st.composite
def registries(draw):
    nodes = draw(st.sampled_from([0, 1, 2, 4]))
    nbuckets = {n: draw(st.integers(2, 40)) for n in HISTOGRAMS}
    regs = []
    for _ in range(nodes):
        reg = MetricsRegistry()
        for name in draw(st.lists(st.sampled_from(COUNTERS), unique=True)):
            c = reg.counter(name)
            for by in draw(st.lists(st.integers(0, 10**9), max_size=3)):
                c.incr(by)
        for name in draw(st.lists(st.sampled_from(GAUGES), unique=True)):
            g = reg.gauge(name)
            for op, x in draw(st.lists(st.tuples(st.booleans(), numbers),
                                       max_size=4)):
                g.set(x) if op else g.add(x)
        for name in draw(st.lists(st.sampled_from(HISTOGRAMS), unique=True)):
            h = reg.histogram(name, nbuckets[name])
            for x in draw(st.lists(st.floats(0, 1e9, allow_nan=False),
                                   max_size=5)):
                h.observe(x)
        regs.append(reg)
    return regs


@settings(max_examples=300, deadline=None)
@given(registries())
def test_dict_merge_equals_the_merged_registry(regs):
    got = merge_snapshots([r.snapshot() for r in regs])
    want = reference_merge(regs).snapshot()
    assert repr(got) == repr(want)
    assert list(got) == ["counters", "gauges", "histograms"]
