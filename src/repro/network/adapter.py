"""The switch adapter (TB3/TBMX model).

Send path (two-stage pipeline, so DMA overlaps link serialisation):

    HAL --enqueue_send()--> send FIFO --[DMA]--> link queue (2 slots)
        --[wire time]--> fabric.transmit()

Receive path:

    fabric --_fabric_deliver()--> adapter SRAM queue --[receive DMA]-->
        host receive FIFO (bounded; overflow drops) --> notification

The three stages run in adapter hardware and use no host CPU, so they
are not simulated processes: each is a plain queue plus one pending
kernel callback (``_dma_done``, ``_wire_done``, ``_rx_dma_done``) that
finishes the packet in service and starts the next queued one at the
same instant.  A finished DMA whose link queue is full holds the DMA
stage until the wire frees a slot, and a full send FIFO hands the
sender a real event to wait on; a packet admitted at once gets an
already-processed event, so the sender continues without a kernel
round trip.

Notification is either *polled* (``poll()`` / ``wait_rx()``) or
*interrupt-driven*: when ``interrupt_mode`` is on and an ISR is
registered, packet arrival schedules the ISR after
``interrupt_latency_us``.  The ISR itself is protocol-supplied — the
native stack installs one with the paper's hysteresis dwell, LAPI
installs a plain drain loop.

Payloads are snapshotted (``bytes``) when a packet is built, so the
simulation always delivers the data as it was at send time; the *timing*
of when the real hardware would have licensed buffer reuse is still
reported through ``on_dma_done`` for origin-counter semantics.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generator, Optional

from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.network.fabric import SwitchFabric
from repro.network.packet import Packet
from repro.sim import Environment, Event

__all__ = ["Adapter", "SendDescriptor"]

#: packets the link queue holds behind the one on the wire
LINK_SLOTS = 2


class SendDescriptor:
    """A packet queued for transmission plus its DMA-done signal."""

    __slots__ = ("packet", "on_dma_done")

    def __init__(self, packet: Packet, on_dma_done: Optional[Event] = None):
        self.packet = packet
        self.on_dma_done = on_dma_done


class Adapter:
    """One node's switch adapter."""

    def __init__(
        self,
        env: Environment,
        params: MachineParams,
        fabric: SwitchFabric,
        node_id: int,
        stats: NodeStats,
    ):
        self.env = env
        self.params = params
        self.fabric = fabric
        self.node_id = node_id
        self.stats = stats
        #: fault hook (:class:`repro.faults.FaultPoint`) for host-FIFO
        #: squeeze events; installed by the cluster, ``None`` otherwise
        self.faults = None

        # the registry counters behind the NodeStats facade, held directly
        reg = stats.registry
        self._c_sent = reg.counter("packets_sent")
        self._c_wire_bytes = reg.counter("bytes_on_wire")
        self._c_received = reg.counter("packets_received")
        self._c_dropped = reg.counter("packets_dropped")
        # receive-FIFO occupancy high water: how close the node came to
        # the overflow drops the reliability layers must then repair
        self._g_rx_depth = reg.gauge("adapter.rx_fifo_depth")
        # the stage-cost terms of MachineParams.dma_cost/wire_cost (the
        # params are frozen), so each stage start makes no method call
        self._dma_setup_us = params.dma_setup_us
        self._dma_us_per_byte = params.dma_us_per_byte
        self._wire_us_per_byte = params.wire_us_per_byte

        # Stage queues; the head of each is the packet in service.  The
        # send FIFO's head stays in place while its DMA'd packet is held
        # for a link slot; senders beyond the FIFO wait in _blocked.
        self._send_fifo: deque[SendDescriptor] = deque()
        self._blocked: deque[tuple[Event, SendDescriptor]] = deque()
        self._dma_held = False
        self._link_q: deque[Packet] = deque()
        self._sram_rx: deque[Packet] = deque()
        #: the host receive FIFO: the adapter appends, ``poll`` pops, and
        #: everyone else only reads it (``rx_pending`` is its length)
        self.host_rx: deque[Packet] = deque()
        self._rx_waiters: list[Event] = []
        # the admission event of every packet the FIFO takes at once:
        # already processed, so yielding it resumes the sender in place
        self._admitted = admitted = env.event()
        admitted._triggered = admitted._processed = True
        admitted.callbacks = None

        #: interrupt-driven receive notification
        self.interrupt_mode: bool = False
        self._isr: Optional[Callable[["Adapter"], Generator]] = None
        self._isr_active = False

        fabric.attach(self)

    # ------------------------------------------------------------- send
    def enqueue_send(self, packet: Packet, on_dma_done: Optional[Event] = None) -> Event:
        """Queue a packet for transmission.

        Returns the FIFO-admission event; yield it to respect adapter
        back-pressure (it is already processed unless the FIFO is full).
        ``on_dma_done`` is succeeded when the payload has left host
        memory (origin-buffer reuse point).
        """
        if packet.src != self.node_id:
            raise ValueError(f"packet src {packet.src} != adapter node {self.node_id}")
        desc = SendDescriptor(packet, on_dma_done)
        fifo = self._send_fifo
        if len(fifo) > self.params.adapter_send_fifo:  # FIFO full behind DMA
            ev = self.env.event()
            self._blocked.append((ev, desc))
            return ev
        fifo.append(desc)
        if len(fifo) == 1:
            self._start_dma()
        return self._admitted

    def _start_dma(self) -> None:
        self.env.call_later(
            self._dma_setup_us
            + self._send_fifo[0].packet.wire_bytes * self._dma_us_per_byte,
            self._dma_done)

    def _dma_done(self, _ev: Event) -> None:
        done = self._send_fifo[0].on_dma_done
        if done is not None and not done.triggered:
            done.succeed()
        if len(self._link_q) > LINK_SLOTS:
            self._dma_held = True  # DMA stays occupied until a link slot frees
        else:
            self._release_dma()

    def _release_dma(self) -> None:
        """Move the DMA'd packet to the link queue and start the next DMA."""
        fifo, link = self._send_fifo, self._link_q
        link.append(fifo.popleft().packet)
        if len(link) == 1:
            self._start_wire()
        if self._blocked:
            ev, desc = self._blocked.popleft()
            fifo.append(desc)
            ev.succeed()
        if fifo:
            self._start_dma()

    def _start_wire(self) -> None:
        self.env.call_later(
            self._link_q[0].wire_bytes * self._wire_us_per_byte, self._wire_done)

    def _wire_done(self, _ev: Event) -> None:
        packet: Packet = self._link_q.popleft()
        packet.route = self.fabric.pick_route(packet.src, packet.dst)
        self._c_sent.value += 1
        self._c_wire_bytes.value += packet.wire_bytes
        if self.stats.tracer is not None:
            self.stats.trace(
                "adapter", "pkt_tx", dst=packet.dst, route=packet.route,
                kind=packet.header.get("kind"), seq=packet.header.get("seq"),
                bytes=packet.wire_bytes, msg=packet.header.get("msg"),
                fid=packet.header.get("fid"), mid=packet.header.get("mid"),
            )
        self.fabric.transmit(packet)
        if self._link_q:
            self._start_wire()
        if self._dma_held:
            self._dma_held = False
            self._release_dma()

    # ---------------------------------------------------------- receive
    def _fabric_deliver(self, packet: Packet) -> None:
        """Fabric hand-off: packet reached this adapter's SRAM."""
        self._sram_rx.append(packet)
        if len(self._sram_rx) == 1:
            self._start_rx_dma()

    def _fifo_capacity(self) -> int:
        """Host receive-FIFO capacity right now (fault squeeze aware)."""
        cap = self.params.adapter_recv_fifo
        if self.faults is not None:
            cap = self.faults.fifo_capacity(cap, self.env.now)
        return cap

    def _start_rx_dma(self) -> None:
        self.env.call_later(
            self._dma_setup_us + self._sram_rx[0].wire_bytes * self._dma_us_per_byte,
            self._rx_dma_done)

    def _rx_dma_done(self, _ev: Event) -> None:
        packet: Packet = self._sram_rx.popleft()
        tracer = self.stats.tracer
        if len(self.host_rx) >= self._fifo_capacity():
            # Host FIFO overflow: the adapter drops; reliability
            # layers above recover via retransmission.
            self._c_dropped.value += 1
            if tracer is not None:
                self.stats.trace("adapter", "fifo_drop", src=packet.src,
                                 seq=packet.header.get("seq"),
                                 mid=packet.header.get("mid"))
        else:
            host_rx = self.host_rx
            host_rx.append(packet)
            gauge = self._g_rx_depth
            depth = gauge.value = len(host_rx)
            if depth > gauge.high_water:
                gauge.high_water = depth
            self._c_received.value += 1
            if tracer is not None:
                self.stats.trace(
                    "adapter", "pkt_rx", src=packet.src,
                    kind=packet.header.get("kind"), seq=packet.header.get("seq"),
                    msg=packet.header.get("msg"), fid=packet.header.get("fid"),
                    mid=packet.header.get("mid"),
                )
            self._notify_rx()
        if self._sram_rx:
            self._start_rx_dma()

    def _notify_rx(self) -> None:
        waiters, self._rx_waiters = self._rx_waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()
        if self.interrupt_mode and self._isr is not None and not self._isr_active:
            self._isr_active = True
            self.env.call_later(self.params.interrupt_latency_us,
                                self._start_isr)

    def _start_isr(self, _ev: Event) -> None:
        self.env.process(self._isr_wrapper(), name=f"a{self.node_id}.isr")

    def _isr_wrapper(self) -> Generator:
        try:
            yield from self._isr(self)
        finally:
            self._isr_active = False
            if self.host_rx and self.interrupt_mode and self._isr is not None:
                # Packets landed after the ISR drained and exited.
                self._isr_active = True
                self.env.call_later(self.params.interrupt_latency_us,
                                    self._start_isr)

    # ----------------------------------------------------------- polling
    def poll(self) -> Optional[Packet]:
        """Non-blocking pop of the next received packet (no cost charged;
        the caller accounts its own poll cost)."""
        if self.host_rx:
            return self.host_rx.popleft()
        return None

    @property
    def rx_pending(self) -> int:
        return len(self.host_rx)

    def arm_rx(self, ev: Event) -> None:
        """Fire ``ev`` when the next packet lands in the host FIFO, or at
        once (unless it has fired already) if packets are pending."""
        if not self.host_rx:
            self._rx_waiters.append(ev)
        elif not ev.triggered:
            ev.succeed()

    def wait_rx(self) -> Event:
        """Event that fires when the next packet lands in the host FIFO.

        Fires immediately if packets are already pending.
        """
        ev = self.env.event()
        self.arm_rx(ev)
        return ev

    # ------------------------------------------------------- interrupts
    def set_interrupt_handler(
        self, isr: Optional[Callable[["Adapter"], Generator]]
    ) -> None:
        """Install the protocol's interrupt service routine."""
        self._isr = isr

    def set_interrupt_mode(self, enabled: bool) -> None:
        self.interrupt_mode = enabled
        if enabled and self.host_rx and self._isr is not None and not self._isr_active:
            self._isr_active = True
            self.env.call_later(self.params.interrupt_latency_us,
                                self._start_isr)
