"""The FaultPoint hook API: how fault plans reach the simulated hardware.

One :class:`FaultInjector` per cluster owns the plan, the dedicated
``faults`` RNG substream, the ``fault.*`` counters, and (when tracing)
the span instants that make injected events visible in Perfetto
exports.  Components never see the plan directly — each injection site
asks for a bound :class:`FaultPoint` handle::

    fabric.faults     = injector.point("fabric")
    adapter.faults    = injector.point("adapter", node=i)
    lapi.flows.faults = injector.point("dispatcher", node=i)
    cpu.faults        = injector.point("cpu", node=i)

``point`` returns ``None`` when the plan has nothing for that site
(and, for the fabric, no base loss), so quiet configurations keep a
single ``is None`` check on the hot path and draw no random numbers.

The scalar ``packet_loss_rate`` knob from :class:`MachineParams` is a
static loss floor under the plan: the cluster and fabrics built without
an explicit injector pass it as ``base_loss_rate`` when they are built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.faults.plan import (
    DispatcherStall,
    DuplicateStorm,
    FaultPlan,
    FifoSqueeze,
    InterruptStorm,
    LossBurst,
    NodeSlowdown,
    ReorderStorm,
    SITES,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.packet import Packet

__all__ = ["FaultInjector", "FaultPoint", "PacketVerdict"]

#: verdict for an unmolested packet (shared instance, allocation-free)
_PASS = None


class PacketVerdict:
    """What the fabric should do with one packet.

    ``copies == 0`` drops it; ``copies >= 2`` delivers duplicates.
    ``extra_delays_us[k]`` is added to copy ``k``'s traversal latency
    (missing entries mean no extra delay).
    """

    __slots__ = ("copies", "extra_delays_us")

    def __init__(self, copies: int = 1, extra_delays_us: tuple = ()):
        self.copies = copies
        self.extra_delays_us = extra_delays_us

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PacketVerdict(copies={self.copies}, extra={self.extra_delays_us})"


DROP = PacketVerdict(copies=0)


class FaultInjector:
    """Owns one cluster's fault plan, RNG stream, and fault metrics."""

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        rng=None,
        metrics=None,
        tracer=None,
        base_loss_rate: float = 0.0,
    ):
        """``rng`` is the generator to draw from, or a seed for one
        (anything :func:`numpy.random.default_rng` takes; default 0).
        A seed's generator is built on the first draw, so a run that
        never draws never builds it."""
        if not (0.0 <= base_loss_rate < 1.0):
            raise ValueError("base_loss_rate must be in [0, 1)")
        self.plan = plan if plan is not None else FaultPlan()
        self._seed = 0 if rng is None else rng
        self._rng = None
        self.tracer = tracer
        self.base_loss_rate = base_loss_rate
        self._by_site = {site: self.plan.for_site(site) for site in SITES}

        self.metrics = metrics
        if metrics is not None:
            self._c_drops = metrics.counter("fault.injected_drops")
            self._c_dups = metrics.counter("fault.duplicates")
            self._c_delays = metrics.counter("fault.extra_delays")
            self._c_squeezes = metrics.counter("fault.fifo_squeezes")
            self._c_stalls = metrics.counter("fault.dispatcher_stalls")
            self._c_storm = metrics.counter("fault.interrupt_storm_ticks")
            self._c_slow = metrics.counter("fault.cpu_slowdown_ticks")
        else:
            self._c_drops = self._c_dups = self._c_delays = None
            self._c_squeezes = self._c_stalls = None
            self._c_storm = self._c_slow = None

    @property
    def rng(self) -> np.random.Generator:
        """The generator every fault draw comes from (a generator given
        as ``rng`` is returned as it is)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        return rng

    # ------------------------------------------------------------- points
    def point(self, site: str, node: Optional[int] = None) -> Optional["FaultPoint"]:
        """A bound handle for ``site`` (on ``node``), or ``None`` when
        the plan can never fire there — callers keep a single
        ``faults is None`` fast path."""
        events = [e for e in self._by_site[site]
                  if node is None or e.matches_node(node)]
        if not events and not (site == "fabric" and self.base_loss_rate > 0.0):
            return None
        return FaultPoint(self, site, node, tuple(events))

    # ------------------------------------------------------------ tracing
    def _trace(self, node: Optional[int], event: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.emit(node if node is not None else -1, "fault",
                             event, **fields)

    @staticmethod
    def _incr(counter, n: int = 1) -> None:
        if counter is not None:
            counter.incr(n)

    # ----------------------------------------------------------- verdicts
    def packet_verdict(self, packet: "Packet", now: float,
                       events) -> Optional[PacketVerdict]:
        """Fabric-site decision for one packet; ``None`` means deliver
        normally (the overwhelmingly common case)."""
        rate = self.base_loss_rate
        extra_skew = 0.0
        extra_jitter = 0.0
        dup_rate = 0.0
        dup_copies = 2
        for ev in events:
            if not (ev.active(now) and ev.matches_packet(packet.src, packet.dst)):
                continue
            if isinstance(ev, LossBurst):
                rate = max(rate, ev.rate)
            elif isinstance(ev, ReorderStorm):
                extra_skew += ev.extra_skew_us
                extra_jitter += ev.extra_jitter_us
            elif isinstance(ev, DuplicateStorm):
                dup_rate = max(dup_rate, ev.rate)
                dup_copies = max(dup_copies, ev.copies)

        if rate > 0.0 and self.rng.random() < rate:
            self._incr(self._c_drops)
            self._trace(packet.dst, "drop", src=packet.src,
                        kind=packet.header.get("kind"),
                        seq=packet.header.get("seq"),
                        mid=packet.header.get("mid"))
            return DROP

        copies = 1
        if dup_rate > 0.0 and self.rng.random() < dup_rate:
            copies = dup_copies
            self._incr(self._c_dups, copies - 1)
            self._trace(packet.dst, "duplicate", src=packet.src, copies=copies,
                        seq=packet.header.get("seq"),
                        mid=packet.header.get("mid"))

        if extra_skew > 0.0 or extra_jitter > 0.0:
            extras = tuple(
                extra_skew + (self.rng.random() * extra_jitter
                              if extra_jitter > 0.0 else 0.0)
                for _ in range(copies)
            )
            self._incr(self._c_delays, copies)
            self._trace(packet.dst, "delay", src=packet.src,
                        extra_us=round(max(extras), 3),
                        seq=packet.header.get("seq"),
                        mid=packet.header.get("mid"))
            return PacketVerdict(copies, extras)

        if copies == 1:
            return _PASS
        # duplicates with no storm jitter: stagger the extras slightly so
        # the copies are distinct arrivals rather than a same-instant pair
        extras = tuple(0.0 if k == 0 else 0.05 * k for k in range(copies))
        return PacketVerdict(copies, extras)

    def fifo_capacity(self, default: int, node: Optional[int],
                      now: float, events) -> int:
        cap = default
        for ev in events:
            if isinstance(ev, FifoSqueeze) and ev.active(now) and ev.matches_node(node):
                cap = min(cap, ev.capacity)
        if cap != default:
            self._incr(self._c_squeezes)
            self._trace(node, "fifo_squeeze", capacity=cap)
        return cap

    def stall_us(self, node: Optional[int], now: float, events) -> float:
        stall = 0.0
        for ev in events:
            if isinstance(ev, DispatcherStall) and ev.active(now) and ev.matches_node(node):
                stall = max(stall, ev.stall_us)
        if stall > 0.0:
            self._incr(self._c_stalls)
            self._trace(node, "dispatcher_stall", stall_us=stall)
        return stall

    def slowdown(self, node: Optional[int], now: float, events) -> float:
        factor = 1.0
        for ev in events:
            if isinstance(ev, NodeSlowdown) and ev.active(now) and ev.matches_node(node):
                factor = max(factor, ev.factor)
        if factor != 1.0:
            self._incr(self._c_slow)
        return factor

    # ----------------------------------------------------- interrupt storms
    def start_storms(self, env, cpus) -> list:
        """Spawn one bounded process per :class:`InterruptStorm` event.

        Each tick charges one interrupt-overhead entry on the target
        node(s)' CPU via an ``irq``-prefixed context.  The processes end
        when their windows close, so the event queue still drains and
        deadlock detection keeps working.
        """
        procs = []
        for ev in self._by_site["storm"]:
            if not isinstance(ev, InterruptStorm):
                continue
            targets = (
                list(enumerate(cpus)) if ev.node is None
                else [(ev.node, cpus[ev.node])]
            )
            for node_id, cpu in targets:
                procs.append(env.process(
                    self._storm_proc(env, ev, node_id, cpu),
                    name=f"fault.irqstorm{node_id}",
                ))
        return procs

    def _storm_proc(self, env, ev: InterruptStorm, node_id: int, cpu):
        if env.now < ev.at_us:
            yield env.timeout(ev.at_us - env.now)
        while env.now < ev.end_us:
            self._incr(self._c_storm)
            self._trace(node_id, "spurious_interrupt")
            # an irq-prefixed context also pays the interrupt-entry
            # charge on first dispatch; the service cost models the
            # handler discovering there is nothing to do
            yield from cpu.execute(f"irq-storm{node_id}",
                                   cpu.params.interrupt_overhead_us)
            yield env.timeout(ev.period_us)


class FaultPoint:
    """One site's bound view of the injector (see module docstring)."""

    __slots__ = ("injector", "site", "node", "events")

    def __init__(self, injector: FaultInjector, site: str,
                 node: Optional[int], events: tuple):
        self.injector = injector
        self.site = site
        self.node = node
        self.events = events

    def on_packet(self, packet: "Packet", now: float) -> Optional[PacketVerdict]:
        return self.injector.packet_verdict(packet, now, self.events)

    def fifo_capacity(self, default: int, now: float) -> int:
        return self.injector.fifo_capacity(default, self.node, now, self.events)

    def stall_us(self, now: float) -> float:
        return self.injector.stall_us(self.node, now, self.events)

    def slowdown(self, now: float) -> float:
        return self.injector.slowdown(self.node, now, self.events)
