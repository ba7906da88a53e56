"""The reliable-flow engine shared by Pipes and LAPI.

A data packet goes out as ``admit`` (window stall, sequence number),
the stack's per-packet charge, then ``transmit``.  The receive side is
all the engine's: ``drain`` pops every packet in the adapter FIFO,
hands acks to ``on_ack`` and runs each data packet through the stack's
per-packet charge, duplicate suppression (a duplicate is re-acked and
dropped), the stack's ``deliver`` hook, then the ack policy.  The
blocking paths that wait for the transport (``admit``, LAPI's fences)
share ``dispatch_until``.  The table of what the engine owns and what
each stack keeps is in ``docs/PROTOCOLS.md`` §4.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Generator, NamedTuple, Optional

from repro.sim import Event
from repro.transport.reliability import ReceiverLedger, SenderWindow

__all__ = ["FlowsView", "ReliableFlows", "wake_all"]


def wake_all(waiters: list[Event]) -> None:
    """Fire every event parked in ``waiters`` and empty the list."""
    for ev in waiters:
        if not ev.triggered:
            ev.succeed()
    waiters.clear()


class _Tx:
    """Sender side of the flow to one peer."""

    __slots__ = ("window", "waiters", "last_progress", "rto_alive")

    def __init__(self, window_pkts: int):
        self.window = SenderWindow(window_pkts)
        self.waiters: list[Event] = []
        self.last_progress = 0.0
        self.rto_alive = False


class _Rx:
    """Receiver side of the flow from one peer."""

    __slots__ = ("ledger", "since_ack", "ack_timer_alive")

    def __init__(self):
        self.ledger = ReceiverLedger()
        self.since_ack = 0
        self.ack_timer_alive = False


class FlowsView(NamedTuple):
    """Per peer with anything outstanding: data packets sent and not yet
    acknowledged, and packets received above a sequence gap."""

    unacked: dict[int, int]
    gaps: dict[int, int]


class ReliableFlows:
    """Windows, acks, retransmission and the receive side for every flow
    of one endpoint.

    ``owner`` is the endpoint (:class:`repro.lapi.Lapi` or
    :class:`repro.pipes.PipeEndpoint`): the engine charges its ``cpu``,
    sends and polls on its ``hal``, counts in its ``stats`` and drives
    its ``dispatch`` while waiting.  ``layer`` names the owner in
    metrics, trace records and errors; packets of ``data_kind`` go to
    ``deliver(thread, src, header, payload)`` (a generator) after
    ``rx_pkt_us`` of CPU and duplicate suppression; ``pkt_us`` is the
    CPU cost of resending one packet.  ``after_ack()`` runs after every
    ack, ``pkt_counter`` (if given) counts every popped packet, and a
    packet of any other kind raises ``error``.
    """

    def __init__(self, owner, *, layer: str, data_kind: str, ack_kind: str,
                 deliver: Callable[..., Generator], window_pkts: int,
                 rto_us: float, pkt_us: float, rx_pkt_us: float,
                 ack_every: int, ack_delay_us: float,
                 after_ack: Optional[Callable[[], None]] = None,
                 pkt_counter=None, error: type[Exception] = RuntimeError):
        self.owner = owner
        self.env = owner.env
        self.cpu = owner.cpu
        self.hal = owner.hal
        self.stats = owner.stats
        self.layer = layer
        self.data_kind = data_kind
        self.ack_kind = ack_kind
        self.deliver = deliver
        self.after_ack = after_ack
        self.pkt_counter = pkt_counter
        self.error = error
        self.rto_us = rto_us
        self.pkt_us = pkt_us
        self.rx_pkt_us = rx_pkt_us
        self.ack_every = ack_every
        self.ack_delay_us = ack_delay_us
        #: fault hook (:class:`repro.faults.FaultPoint`) for dispatcher
        #: stalls; installed by the cluster, ``None`` otherwise
        self.faults = None
        self._tx: dict[int, _Tx] = defaultdict(lambda: _Tx(window_pkts))
        self._rx: dict[int, _Rx] = defaultdict(_Rx)
        reg = self.stats.registry
        self._g_inflight = reg.gauge(f"{layer}.pkts_in_flight")
        self._c_retransmissions = reg.counter("retransmissions")
        self._c_acks = reg.counter("acks_sent")
        self._rx_fifo = self.hal.adapter.host_rx

    def inflight(self) -> FlowsView:
        """Unacknowledged packets and ledger gaps, per peer."""
        return FlowsView(
            unacked={p: f.window.in_flight for p, f in self._tx.items()
                     if f.window.in_flight},
            gaps={p: f.ledger.gap_count for p, f in self._rx.items()
                  if f.ledger.gap_count},
        )

    # ------------------------------------------------------------ waiting
    def dispatch_until(self, thread: str, done: Callable[[], bool],
                       waiters: Optional[list[Event]] = None) -> Generator:
        """Drive the owner's ``dispatch`` until ``done()``.  Between
        passes park on the adapter FIFO and, if ``waiters`` is given, in
        that list too: a concurrent dispatcher (MPCI poller, ISR) may pop
        the packet that settles ``done()`` before we wake, in which case
        no further rx ever arrives here."""
        while not done():
            yield from self.owner.dispatch(thread)
            if done():
                return
            if waiters is None:
                yield self.hal.wait_rx()
            else:
                yield self.env.park(waiters.append, self.hal.arm_rx)

    # ------------------------------------------------------------ sending
    def admit(self, thread: str, dst: int, header: dict[str, Any],
              payload) -> Generator:
        """Wait for room in the window to ``dst``, then number the packet
        (``header["seq"]``) and keep it for retransmission.  Stalled,
        it makes progress: acks may be sitting in our own adapter FIFO,
        and polling-mode MPI advances the protocol from blocking calls."""
        flow = self._tx[dst]
        if not flow.window.can_send:  # the common case builds no wait loop
            yield from self.dispatch_until(
                thread, lambda: flow.window.can_send, flow.waiters)
        header["seq"] = flow.window.send((header, payload))
        gauge = self._g_inflight
        level = gauge.value = gauge.value + 1
        if level > gauge.high_water:
            gauge.high_water = level

    def transmit(self, thread: str, dst: int, header: dict[str, Any], payload,
                 on_dma_done: Optional[Event] = None) -> Generator:
        """Hand an admitted packet to HAL and arm the retransmission timer."""
        yield from self.hal.send(thread, dst, header, payload,
                                 on_dma_done=on_dma_done)
        flow = self._tx[dst]
        flow.last_progress = self.env.now
        if not flow.rto_alive:
            flow.rto_alive = True
            self.env.process(self._rto_loop(dst, flow),
                             name=f"{self.layer}{self.hal.node_id}.rto->{dst}")

    def _rto_loop(self, dst: int, flow: _Tx) -> Generator:
        rto = self.rto_us
        try:
            while flow.window.in_flight:
                yield self.env.timeout(rto)
                if not flow.window.in_flight:
                    break
                # Check our own FIFO first: the ack may already be here.
                yield from self.owner.dispatch("user")
                if not flow.window.in_flight:
                    break
                if self.env.now - flow.last_progress < rto:
                    continue
                seq, (header, payload) = flow.window.oldest_unacked()
                self._c_retransmissions.value += 1
                if self.stats.tracer is not None:
                    self.stats.trace(self.layer, "retransmit", dst=dst, seq=seq)
                yield from self.cpu.execute("user", self.pkt_us)
                yield from self.hal.send("user", dst, header, payload)
                flow.last_progress = self.env.now
                rto = min(rto * 2, self.rto_us * 16)
        finally:
            flow.rto_alive = False

    def on_ack(self, src: int, cum: int) -> None:
        """Apply a cumulative ack from ``src``: free the window, wake
        anyone stalled on it, then run the owner's ``after_ack``."""
        flow = self._tx[src]
        freed = flow.window.on_ack(cum)
        if freed:
            self._g_inflight.value -= freed  # a fall never moves the high water
            flow.last_progress = self.env.now
            wake_all(flow.waiters)
        if self.after_ack is not None:
            self.after_ack()

    # ---------------------------------------------------------- receiving
    def stall(self, thread: str) -> Generator:
        """Charge the dispatcher stall the fault plan injects now, if any.

        Only called while a stall hook (``faults``) is installed."""
        stall = self.faults.stall_us(self.env.now)
        if stall > 0.0:
            yield from self.cpu.execute(thread, stall)

    def idle(self) -> bool:
        """True when a dispatch pass would find nothing to do: the
        adapter FIFO is empty and no stall hook can charge a stall."""
        return self.faults is None and not self._rx_fifo

    def drain(self, thread: str) -> Generator:
        """Process every packet in the adapter FIFO; returns how many
        were popped.

        Each pays the HAL receive charge.  A data packet then pays the
        stack's ``rx_pkt_us``; a duplicate is re-acked at once (so its
        sender stops resending it) and dropped, a new one goes to
        ``deliver`` and then to the ack policy: ack after every
        ``ack_every`` new packets from its source, else within
        ``ack_delay_us`` of the first unacknowledged one.
        """
        processed = 0
        while True:
            pkt = self.hal.poll()
            if pkt is None:
                return processed
            processed += 1
            if self.pkt_counter is not None:
                self.pkt_counter.value += 1
            yield from self.hal.charge_recv(thread)
            header, src = pkt.header, pkt.src
            kind = header.get("kind")
            if kind == self.ack_kind:
                self.on_ack(src, header["cum"])
                continue
            if kind != self.data_kind:
                raise self.error(
                    f"{self.layer} got foreign packet kind {kind!r}")
            yield from self.cpu.execute(thread, self.rx_pkt_us)
            flow = self._rx[src]
            if flow.ledger.accept(header["seq"]) == "dup":
                yield from self._send_ack(thread, src, flow)
                continue
            flow.since_ack += 1
            yield from self.deliver(thread, src, header, pkt.payload)
            if flow.since_ack >= self.ack_every:
                yield from self._send_ack(thread, src, flow)
            elif flow.since_ack > 0 and not flow.ack_timer_alive:
                flow.ack_timer_alive = True
                self.env.process(
                    self._delayed_ack(src, flow),
                    name=f"{self.layer}{self.hal.node_id}.dack<-{src}")

    def _delayed_ack(self, src: int, flow: _Rx) -> Generator:
        try:
            yield self.env.timeout(self.ack_delay_us)
            if flow.since_ack > 0:
                yield from self._send_ack("user", src, flow)
        finally:
            flow.ack_timer_alive = False

    def _send_ack(self, thread: str, src: int, flow: _Rx) -> Generator:
        flow.since_ack = 0
        self._c_acks.value += 1
        yield from self.hal.send(
            thread, src, {"kind": self.ack_kind, "cum": flow.ledger.cum_ack}, b"")
