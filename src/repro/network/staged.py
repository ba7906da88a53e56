"""A contention-aware multistage switch model (Vulcan-style).

The default :class:`~repro.network.fabric.SwitchFabric` prices the
fabric as a fixed latency plus per-route skew/jitter.  This model is a
``SwitchFabric`` whose traversal delay goes one level deeper: an explicit **butterfly** of radix-2 switching
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

from typing import TYPE_CHECKING

from repro.network.fabric import SwitchFabric

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


class StagedFabric(SwitchFabric):
    """A :class:`SwitchFabric` whose delay is the butterfly walk.

    Routing, fault verdicts and delivery are the base class's; only the
    traversal delay differs, and it reserves link occupancy as it goes.
    """

    def __init__(self, env, params, rng=None, metrics=None, faults=None):
        super().__init__(env, params, rng=rng, metrics=metrics, faults=faults)
        #: (plane, stage, dst_prefix, src_suffix) -> busy-until time
        self._busy_until: dict[tuple, float] = {}
        #: cumulative time packets spent queued at contended links
        self.contention_us = 0.0
        self._stages = 1  # grows as adapters attach
        self._h_queue = None if metrics is None else metrics.histogram("net.hop_queue_us")

    def attach(self, adapter: "Adapter") -> None:
        super().attach(adapter)
        n = _next_pow2(max(2, max(self._adapters) + 1))
        self._stages = max(1, n.bit_length() - 1)

    @property
    def stages(self) -> int:
        return self._stages

    def _traversal_us(self, packet: "Packet") -> float:
        """Walk the packet's plane/path, reserving link occupancy."""
        p = self.params
        now = self.env.now
        occupancy = packet.wire_bytes * p.wire_us_per_byte
        t = now
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
        return t - now
