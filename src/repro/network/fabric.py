"""The multistage switch fabric.

Routing model: each (source, destination) flow round-robins over
``params.route_count`` source routes, as the SP switch does.  Route ``r``
carries a standing congestion penalty of ``r * route_skew_us`` plus a
uniform jitter draw — so later packets of a message can overtake earlier
ones when the skew/jitter exceeds the inter-packet serialisation gap.

Faults (loss, duplication, reorder storms) are injected through an
optional :class:`repro.faults.FaultPoint`; a fabric built without one
derives a static loss point from a positive ``params.packet_loss_rate``,
so the scalar knob keeps working for directly constructed fabrics.

The fabric owns no CPU time; link serialisation happens in the sending
adapter and reception costs in the receiving one.  Subclasses change
only the traversal delay (:meth:`SwitchFabric._traversal_us`), as
:class:`~repro.network.staged.StagedFabric` does with its butterfly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.machine.params import MachineParams
from repro.sim import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.adapter import Adapter
    from repro.network.packet import Packet

__all__ = ["SwitchFabric"]


class SwitchFabric:
    """Connects node adapters; delivers packets with route-dependent delay."""

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
        #: fault hook (:class:`repro.faults.FaultPoint`) — ``None`` keeps
        #: the hot path draw-free
        self.faults = faults
        if faults is None and params.packet_loss_rate > 0.0:
            from repro.faults.points import FaultInjector

            # static loss point, drawing from the fabric rng in the
            # pre-FaultPoint order
            self.faults = FaultInjector(
                rng=self.rng, base_loss_rate=params.packet_loss_rate,
            ).point("fabric")
        self._adapters: dict[int, "Adapter"] = {}
        #: per-destination arrival callbacks (built in attach) so transmit
        #: allocates no closure per packet
        self._arrive: dict[int, callable] = {}
        self._next_route: dict[tuple[int, int], int] = {}
        #: total packets the fabric dropped (loss injection)
        self.dropped = 0
        #: total packets delivered
        self.delivered = 0
        #: optional MetricsRegistry for per-packet traversal-delay stats
        self.metrics = metrics
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

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._adapters)

    def pick_route(self, src: int, dst: int) -> int:
        """Round-robin source routing per flow."""
        key = (src, dst)
        r = self._next_route.get(key, 0)
        self._next_route[key] = (r + 1) % self.params.route_count
        return r

    def _traversal_us(self, packet: "Packet") -> float:
        """The packet's fabric latency: route base, skew and jitter."""
        p = self.params
        return (
            p.route_base_us
            + packet.route * p.route_skew_us
            + (self.rng.random() * p.route_jitter_us if p.route_jitter_us > 0 else 0.0)
        )

    # ------------------------------------------------------------------
    def transmit(self, packet: "Packet") -> None:
        """Inject a fully serialised packet into the fabric.

        Called by the sending adapter at the moment the last byte left
        its link.  Delivery to the destination adapter is scheduled after
        the route's traversal latency.
        """
        arrive = self._arrive.get(packet.dst)
        if arrive is None:
            raise KeyError(f"no adapter attached for node {packet.dst}")
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
        # drawn after the fault verdict: both may share the fabric rng
        delay = self._traversal_us(packet)
        if copies == 1 and not extras:
            if self._h_delay is not None:
                self._h_delay.observe(delay)
            self.env.call_later(delay, arrive, packet)
            return
        for k in range(copies):
            d = delay + (extras[k] if k < len(extras) else 0.0)
            if self._h_delay is not None:
                self._h_delay.observe(d)
            self.env.call_later(d, arrive, packet)
