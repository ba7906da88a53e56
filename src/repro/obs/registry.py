"""Typed, deterministic metrics: counters, gauges, log2 histogram timers.

The registry is the single source of truth for every quantitative claim
the simulation makes about itself.  Three metric types:

- :class:`Counter` — monotone (but settable) integer event count.
- :class:`Gauge` — instantaneous level with a high-water mark (e.g.
  early-arrival buffer occupancy, heap depth).
- :class:`Histogram` — fixed log2 buckets over non-negative samples
  (simulated-time durations in microseconds).  Bucket ``i`` (``i >= 1``)
  holds samples in ``[2**(i-1), 2**i)``; bucket 0 holds ``x < 1``.

Everything here is **simulation-deterministic**: no wall clock, no
randomness, no ordering dependence beyond the sim's own event order.
Two identical runs therefore produce byte-identical snapshots —
``tests/sim/test_determinism.py`` enforces this.

Names are dot-separated, lower-case: the bare legacy ``NodeStats``
counters keep their historical names (``copies``, ``polls``, ...);
layer-specific metrics are namespaced (``lapi.amsend``,
``mpi.proto.eager.standard``, ``sim.events_popped``, ...).
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "merge_snapshots"]

#: default bucket count — 2**31 us ≈ 36 simulated minutes, far beyond any run
DEFAULT_BUCKETS = 32


class Counter:
    """A named integer event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def incr(self, by: int = 1) -> None:
        self.value += by

    def set(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named level with a high-water mark.

    ``set``/``add`` update the current value; ``high_water`` remembers
    the maximum ever seen (occupancy peaks are what the paper's buffer
    arguments hinge on).
    """

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value
        self.high_water = value

    def set(self, value) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def add(self, by) -> None:
        self.set(self.value + by)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} hw={self.high_water}>"


class Histogram:
    """Fixed log2-bucket histogram for non-negative samples.

    Bucket boundaries are powers of two, so bucketing is exact float
    arithmetic (``math.frexp``) — no wall-clock or platform dependence.
    """

    __slots__ = ("name", "nbuckets", "buckets", "count", "total")

    def __init__(self, name: str, nbuckets: int = DEFAULT_BUCKETS):
        if nbuckets < 2:
            raise ValueError("histogram needs at least 2 buckets")
        self.name = name
        self.nbuckets = nbuckets
        self.buckets = [0] * nbuckets
        self.count = 0
        self.total = 0.0

    @staticmethod
    def bucket_index(x: float, nbuckets: int = DEFAULT_BUCKETS) -> int:
        """Index of the bucket holding ``x`` (clamped to the last)."""
        if x < 1.0:
            return 0
        _m, e = math.frexp(x)  # x == m * 2**e with 0.5 <= m < 1
        return min(e, nbuckets - 1)

    def observe(self, x: float) -> None:
        if x < 0:
            raise ValueError(f"{self.name}: negative sample {x}")
        # bucket_index, inline: the fabric observes every packet
        self.buckets[0 if x < 1.0 else min(math.frexp(x)[1], self.nbuckets - 1)] += 1
        self.count += 1
        self.total += x

    def upper_bounds(self) -> list[float]:
        """Exclusive upper bound of each bucket (last is +inf)."""
        return [float(1 << i) for i in range(self.nbuckets - 1)] + [math.inf]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} sum={self.total:.2f}>"


class MetricsRegistry:
    """A flat, get-or-create namespace of typed metrics.

    One registry per node (owned by ``NodeStats``) plus one cluster-level
    registry (sim kernel + fabric) — see ``SPCluster.metrics_snapshot``.

    ``counters`` and ``gauges`` name metrics to create up front, in one
    pass (a node's static schema); later ``counter``/``gauge`` calls for
    those names are plain lookups.
    """

    def __init__(self, counters: Iterable[str] = (),
                 gauges: Iterable[str] = ()) -> None:
        self._counters: dict[str, Counter] = {n: Counter(n) for n in counters}
        self._gauges: dict[str, Gauge] = {n: Gauge(n) for n in gauges}
        self._histograms: dict[str, Histogram] = {}
        if not self._counters.keys().isdisjoint(self._gauges):
            raise ValueError("a metric name is both a counter and a gauge")

    # -------------------------------------------------------- factories
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_free(name)
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_free(name)
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, nbuckets: int = DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_free(name)
            h = self._histograms[name] = Histogram(name, nbuckets)
        return h

    def _check_free(self, name: str) -> None:
        if name in self._counters or name in self._gauges or name in self._histograms:
            raise ValueError(f"metric {name!r} already registered with another type")

    # --------------------------------------------------------- querying
    def counter_value(self, name: str) -> int:
        """Value of a counter, 0 if it was never touched."""
        c = self._counters.get(name)
        return 0 if c is None else c.value

    def snapshot(self) -> dict:
        """JSON-able, key-sorted view of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "high_water": g.high_water}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: {"count": h.count, "sum": h.total, "buckets": list(h.buckets)}
                for n, h in sorted(self._histograms.items())
            },
        }


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Element-wise merge of :meth:`MetricsRegistry.snapshot` dicts, in
    the same format: counters and histograms sum; gauges sum their
    values and take the max of their high-water marks.  Every sum starts
    from ``0`` (``0.0`` for a histogram's ``sum``) and adds the inputs in
    order, so the result equals the snapshot of one registry that
    accumulated every input."""
    counters: dict[str, int] = {}
    gauges: dict[str, dict] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        get = counters.get
        for n, v in snap["counters"].items():
            counters[n] = get(n, 0) + v
        for n, g in snap["gauges"].items():
            m = gauges.get(n)
            if m is None:
                m = gauges[n] = {"value": 0, "high_water": 0}
            m["value"] += g["value"]
            m["high_water"] = max(m["high_water"], g["high_water"])
        for n, h in snap["histograms"].items():
            m = histograms.get(n)
            if m is None:
                m = histograms[n] = {"count": 0, "sum": 0.0,
                                     "buckets": [0] * len(h["buckets"])}
            elif len(m["buckets"]) != len(h["buckets"]):
                raise ValueError(f"histogram {n!r}: bucket count mismatch")
            m["count"] += h["count"]
            m["sum"] += h["sum"]
            m["buckets"] = [a + b for a, b in zip(m["buckets"], h["buckets"])]
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
