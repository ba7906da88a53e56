"""The reliable-flow engine shared by Pipes and LAPI.

A data packet goes out as ``admit`` (window stall, sequence number),
the stack's per-packet charge, then ``transmit``; it comes in as the
stack's charge, ``accept`` (duplicates are re-acked and dropped), the
stack's delivery, then ``delivered`` (ack policy).  Acks go to
``on_ack``.  The table of what the engine owns and what each stack
keeps is in ``docs/PROTOCOLS.md`` §4.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Generator, NamedTuple, Optional

from repro.sim import AnyOf, Event
from repro.transport.reliability import ReceiverLedger, SenderWindow

__all__ = ["FlowsView", "ReliableFlows"]


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
    """Windows, acks and retransmission for every flow of one endpoint.

    ``owner`` is the endpoint (:class:`repro.lapi.Lapi` or
    :class:`repro.pipes.PipeEndpoint`): the engine charges its ``cpu``,
    sends on its ``hal``, counts in its ``stats`` and drives its
    ``dispatch`` while waiting for acks.  ``layer`` names the owner in
    metrics and trace records; ``pkt_us`` is the CPU cost of resending
    one packet.
    """

    def __init__(self, owner, *, layer: str, ack_kind: str,
                 window_pkts: int, rto_us: float, pkt_us: float,
                 ack_every: int, ack_delay_us: float):
        self.owner = owner
        self.env = owner.env
        self.cpu = owner.cpu
        self.hal = owner.hal
        self.stats = owner.stats
        self.layer = layer
        self.ack_kind = ack_kind
        self.rto_us = rto_us
        self.pkt_us = pkt_us
        self.ack_every = ack_every
        self.ack_delay_us = ack_delay_us
        self._tx: dict[int, _Tx] = defaultdict(lambda: _Tx(window_pkts))
        self._rx: dict[int, _Rx] = defaultdict(_Rx)
        self._g_inflight = self.stats.registry.gauge(f"{layer}.pkts_in_flight")

    def inflight(self) -> FlowsView:
        """Unacknowledged packets and ledger gaps, per peer."""
        return FlowsView(
            unacked={p: f.window.in_flight for p, f in self._tx.items()
                     if f.window.in_flight},
            gaps={p: f.ledger.gap_count for p, f in self._rx.items()
                  if f.ledger.gap_count},
        )

    def admit(self, thread: str, dst: int, header: dict[str, Any],
              payload) -> Generator:
        """Wait for room in the window to ``dst``, then number the packet
        (``header["seq"]``) and keep it for retransmission."""
        flow = self._tx[dst]
        while not flow.window.can_send:
            # Make progress while stalled: acks may be sitting in our own
            # adapter FIFO — polling-mode MPI advances the protocol from
            # inside blocking calls.
            yield from self.owner.dispatch(thread)
            if flow.window.can_send:
                break
            # Wait on the window as well as the FIFO: a concurrent
            # dispatcher (MPCI poller, ISR) may pop the ack before we
            # wake, in which case no further rx ever arrives here.
            waiter = self.env.event()
            flow.waiters.append(waiter)
            yield AnyOf(self.env, [waiter, self.hal.wait_rx()])
        header["seq"] = flow.window.send((header, payload))
        self._g_inflight.add(1)

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
                self.stats.retransmissions += 1
                self.stats.trace(self.layer, "retransmit", dst=dst, seq=seq)
                yield from self.cpu.execute("user", self.pkt_us)
                yield from self.hal.send("user", dst, header, payload)
                flow.last_progress = self.env.now
                rto = min(rto * 2, self.rto_us * 16)
        finally:
            flow.rto_alive = False

    def on_ack(self, src: int, cum: int) -> None:
        """Apply a cumulative ack from ``src``: free the window, wake
        anyone stalled on it."""
        flow = self._tx[src]
        freed = flow.window.on_ack(cum)
        if freed:
            self._g_inflight.add(-freed)
            flow.last_progress = self.env.now
            waiters, flow.waiters = flow.waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def accept(self, thread: str, src: int, seq: int) -> Generator:
        """Classify an arriving data packet; returns True if it is new.

        A duplicate is acknowledged at once, so its sender stops
        resending it, and must not be delivered.
        """
        flow = self._rx[src]
        if flow.ledger.accept(seq) == "dup":
            yield from self._send_ack(thread, src, flow)
            return False
        flow.since_ack += 1
        return True

    def delivered(self, thread: str, src: int) -> Generator:
        """Ack after every ``ack_every`` new packets from ``src``, else
        within ``ack_delay_us`` of the first unacknowledged one."""
        flow = self._rx[src]
        if flow.since_ack >= self.ack_every:
            yield from self._send_ack(thread, src, flow)
        elif flow.since_ack > 0 and not flow.ack_timer_alive:
            flow.ack_timer_alive = True
            self.env.process(self._delayed_ack(src, flow),
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
        self.stats.acks_sent += 1
        yield from self.hal.send(
            thread, src, {"kind": self.ack_kind, "cum": flow.ledger.cum_ack}, b"")
