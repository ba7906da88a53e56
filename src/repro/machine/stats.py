"""Per-node statistics counters, backed by the metrics registry.

Every layer increments these as it works; tests and EXPERIMENTS.md use
them to verify *structural* claims (e.g. MPI-LAPI performs strictly
fewer buffer copies per byte than the native stack, native MPI takes
hysteresis dwells in interrupt mode, etc.).

:class:`NodeStats` is a read facade over a per-node
:class:`repro.obs.MetricsRegistry`: the historical attribute counters
(``stats.copies`` and friends) are properties over registry counters,
so the same numbers appear in metrics snapshots, ``BENCH_*.json``
artifacts, and ``as_dict()``.  Layers count through the registry
itself: each takes its ``Counter``/``Gauge`` handles from
``stats.registry`` once and updates their fields inline.
:class:`~repro.cluster.SPCluster` hands each node a registry that
already holds these counters (its stack's static schema), so building
the facade looks nothing up by name.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["COUNTER_FIELDS", "NodeStats"]

#: the legacy per-node counters, in their historical (declaration) order
COUNTER_FIELDS = (
    # memory traffic
    "copies",
    "bytes_copied",
    # adapter traffic
    "packets_sent",
    "packets_received",
    "bytes_on_wire",
    "packets_dropped",
    "retransmissions",
    "acks_sent",
    # CPU events
    "ctx_switches",
    "interrupts",
    "hysteresis_dwells",
    "polls",
    # LAPI activity
    "hdr_handlers_run",
    "cmpl_handlers_threaded",
    "cmpl_handlers_inline",
    # MPI activity
    "msgs_sent",
    "msgs_received",
    "early_arrivals",
    "matches_posted",
    "rendezvous_started",
    "eager_sends",
    # first packets whose matching was deferred to preserve MPI's
    # non-overtaking rule after overtaking in the fabric
    "deferred_announcements",
)
_FIELD_SET = frozenset(COUNTER_FIELDS)


class NodeStats:
    """Counters for one simulated node.

    A :class:`repro.trace.Tracer` may be attached as the ``tracer``
    attribute; layers emit structured events through :meth:`trace`,
    which is a no-op when tracing is off.

    Constructing with keyword arguments (``NodeStats(copies=3)``) seeds
    the named counters, mirroring the old dataclass behaviour.
    """

    #: class-level defaults; SPCluster sets instance attributes
    tracer = None
    node_id = -1

    def __init__(self, registry: Optional[MetricsRegistry] = None, **values: int):
        if registry is None:
            registry = MetricsRegistry(counters=COUNTER_FIELDS)
        self.registry = registry
        # the registry's own name table: the properties read through it
        self._counters = counters = registry._counters
        if not _FIELD_SET <= counters.keys():
            for name in COUNTER_FIELDS:
                registry.counter(name)
        for name, value in values.items():
            if name not in _FIELD_SET:
                raise TypeError(f"NodeStats has no counter {name!r}")
            counters[name].set(value)

    def record_copy(self, nbytes: int) -> None:
        self.copies += 1
        self.bytes_copied += nbytes

    def trace(self, layer: str, event: str, **fields) -> None:
        """Emit a structured trace event (no-op unless a tracer is set)."""
        if self.tracer is not None:
            self.tracer.emit(self.node_id, layer, event, **fields)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nonzero = {k: v for k, v in self.as_dict().items() if v}
        return f"<NodeStats node={self.node_id} {nonzero}>"


def _counter_property(name: str) -> property:
    def fget(self: NodeStats) -> int:
        return self._counters[name].value

    def fset(self: NodeStats, value: int) -> None:
        self._counters[name].set(value)

    return property(fget, fset)


for _name in COUNTER_FIELDS:
    setattr(NodeStats, _name, _counter_property(_name))
del _name

