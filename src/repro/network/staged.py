"""A contention-aware multistage switch model (Vulcan-style).

The default :class:`~repro.network.fabric.SwitchFabric` prices the
fabric as a fixed latency plus per-route skew/jitter.  This model goes
one level deeper: an explicit **butterfly** of radix-2 switching
elements, ``log2(N)`` stages, with destination-tag routing and FCFS
occupancy on every inter-stage link.  The SP's four routes per node
pair appear as four parallel switch *planes* (as on real SP frames),
selected round-robin per packet.

Cut-through timing: a packet's own latency grows by ``switch_hop_us``
per stage, while each link it crosses stays *occupied* for the packet's
full serialisation time — so disjoint flows pass in parallel but
converging flows (incast, transposes) queue at shared links.  Link
occupancy is tracked analytically (``busy_until`` per link), which
keeps the event count per packet at one.

Enable with ``MachineParams(fabric_model="staged")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.machine.params import MachineParams
from repro.sim import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.adapter import Adapter
    from repro.network.packet import Packet

__all__ = ["StagedFabric", "butterfly_links"]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


def butterfly_links(src: int, dst: int, stages: int) -> list[tuple[int, int, int]]:
    """The inter-stage links a packet crosses in a radix-2 butterfly.

    Destination-tag routing: after stage ``s`` the packet sits at the
    address whose top ``s+1`` bits come from ``dst`` and whose remaining
    bits come from ``src``.  Two packets share a link iff they are at
    the same stage with the same dst-prefix and src-suffix, which this
    key encodes directly.
    """
    links = []
    for s in range(stages):
        dst_prefix = dst >> (stages - 1 - s)
        src_suffix = src & ((1 << (stages - 1 - s)) - 1)
        links.append((s, dst_prefix, src_suffix))
    return links


class StagedFabric:
    """Drop-in alternative to :class:`SwitchFabric` with link contention."""

    def __init__(
        self,
        env: Environment,
        params: MachineParams,
        rng: Optional[np.random.Generator] = None,
        metrics=None,
        faults=None,
    ):
        params.validate()
        self.env = env
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: fault hook (:class:`repro.faults.FaultPoint`), as on SwitchFabric
        self.faults = faults
        if faults is None:
            from repro.faults.points import FaultInjector

            # static loss point, ``None`` when the rate is 0
            self.faults = FaultInjector(
                rng=self.rng, base_loss_rate=params.packet_loss_rate,
            ).point("fabric")
        self._adapters: dict[int, "Adapter"] = {}
        #: per-destination arrival callbacks (built in attach), as on
        #: SwitchFabric: no closure allocation per packet
        self._arrive: dict[int, callable] = {}
        self._next_route: dict[tuple[int, int], int] = {}
        #: (plane, stage, dst_prefix, src_suffix) -> busy-until time
        self._busy_until: dict[tuple, float] = {}
        self.dropped = 0
        self.delivered = 0
        #: cumulative time packets spent queued at contended links
        self.contention_us = 0.0
        self._stages = 1  # grows as adapters attach
        #: optional MetricsRegistry for per-hop queueing-delay stats
        self.metrics = metrics
        self._h_queue = None if metrics is None else metrics.histogram("net.hop_queue_us")
        self._h_delay = None if metrics is None else metrics.histogram("net.route_delay_us")
        self._m_dropped = None if metrics is None else metrics.counter("net.dropped")

    # ------------------------------------------------------------------
    def attach(self, adapter: "Adapter") -> None:
        if adapter.node_id in self._adapters:
            raise ValueError(f"node {adapter.node_id} already attached")
        self._adapters[adapter.node_id] = adapter
        deliver = adapter._fabric_deliver

        def arrive(ev) -> None:
            self.delivered += 1
            deliver(ev._value)

        self._arrive[adapter.node_id] = arrive
        n = _next_pow2(max(2, max(self._adapters) + 1))
        self._stages = max(1, n.bit_length() - 1)

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._adapters)

    @property
    def stages(self) -> int:
        return self._stages

    def pick_route(self, src: int, dst: int) -> int:
        """Round-robin across the parallel switch planes."""
        key = (src, dst)
        r = self._next_route.get(key, 0)
        self._next_route[key] = (r + 1) % self.params.route_count
        return r

    # ------------------------------------------------------------------
    def transmit(self, packet: "Packet") -> None:
        """Walk the packet's plane/path, reserving link occupancy."""
        arrive = self._arrive.get(packet.dst)
        if arrive is None:
            raise KeyError(f"no adapter attached for node {packet.dst}")
        p = self.params
        copies, extras = 1, ()
        faults = self.faults
        if faults is not None:
            verdict = faults.on_packet(packet, self.env.now)
            if verdict is not None:
                if verdict.copies == 0:
                    self.dropped += 1
                    if self._m_dropped is not None:
                        self._m_dropped.incr()
                    return
                copies = verdict.copies
                extras = verdict.extra_delays_us
        occupancy = packet.wire_bytes * p.wire_us_per_byte
        t = self.env.now
        for link in butterfly_links(packet.src, packet.dst, self._stages):
            key = (packet.route, *link)
            free_at = self._busy_until.get(key, t)
            queued = max(0.0, free_at - t)
            self.contention_us += queued
            if self._h_queue is not None:
                self._h_queue.observe(queued)
            t = max(t, free_at) + p.switch_hop_us
            # cut-through: the link is held for the full wire time
            self._busy_until[key] = max(t, free_at) + occupancy
        if p.route_jitter_us > 0.0:
            t += self.rng.random() * p.route_jitter_us
        for k in range(copies):
            d = (t - self.env.now) + (extras[k] if k < len(extras) else 0.0)
            if self._h_delay is not None:
                self._h_delay.observe(d)
            self.env.call_later(d, arrive, packet)
