"""The per-node Pipes endpoint: framing, staging copies, in-order delivery.

Windows, acks, retransmission and the drain of the adapter FIFO are the
shared :class:`repro.transport.ReliableFlows` engine's.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Generator, Optional

from repro.hal import Hal, fragment
from repro.machine.cpu import Cpu
from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.sim import Environment, Event
from repro.transport import ReliableFlows, wake_all

__all__ = ["PipeEndpoint"]

#: packet kinds on a pipe
_DATA = "pipe"
_ACK = "pipe_ack"


class _InOrder:
    """Packets from one source held until the stream reaches them."""

    __slots__ = ("stash", "next_deliver")

    def __init__(self):
        self.stash: dict[int, tuple[dict, bytes]] = {}
        self.next_deliver = 0


class PipeEndpoint:
    """Reliable, ordered packet stream to every peer.

    ``on_packet`` must be a generator function
    ``(thread, src, header, payload) -> Generator`` installed by the
    layer above (native MPCI); it is invoked for each packet **in stream
    order**.
    """

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        hal: Hal,
        params: MachineParams,
        stats: NodeStats,
    ):
        self.env = env
        self.cpu = cpu
        self.hal = hal
        self.params = params
        self.stats = stats
        self._order: dict[int, _InOrder] = defaultdict(_InOrder)
        self.on_packet: Optional[Callable[..., Generator]] = None
        # dispatch serialization: see :meth:`dispatch`
        self._dispatching = False
        self._dispatch_waiters: list[Event] = []
        # observability: the staging/reorder copies are what the paper's
        # Fig 11/12 argument charges the native stack for
        self.metrics = stats.registry
        self._m_frames = self.metrics.counter("pipes.frames_sent")
        self._m_staged = self.metrics.counter("pipes.bytes_staged")
        self._m_reordered = self.metrics.counter("pipes.bytes_reordered")
        self.flows = ReliableFlows(
            self, layer="pipes", data_kind=_DATA, ack_kind=_ACK,
            deliver=self._deliver,
            window_pkts=params.pipe_window_pkts, rto_us=params.pipe_rto_us,
            pkt_us=params.pipe_pkt_us, rx_pkt_us=params.pipe_pkt_us,
            ack_every=params.pipe_ack_every,
            ack_delay_us=params.pipe_ack_delay_us)

    @property
    def stashed(self) -> int:
        """Packets received out of order and not yet delivered."""
        return sum(len(o.stash) for o in self._order.values())

    # ----------------------------------------------------------- sending
    def send_frame(
        self,
        thread: str,
        dst: int,
        meta: dict[str, Any],
        data: bytes,
        buffered_prefix: int = 0,
        buffered_suffix: int = 0,
        on_payload_out: Optional[Event] = None,
        fid: Optional[int] = None,
        mid: Optional[str] = None,
    ) -> Generator:
        """Send one MPCI frame over the stream to ``dst``.

        ``meta`` rides the first packet.  Bytes inside the buffered
        prefix/suffix are charged the pipe-buffer→HAL copy (the native
        stack's second send-side copy); bytes outside go direct (DMA from
        the user buffer).  ``on_payload_out`` fires when the last
        packet's payload has left host memory.  ``mid`` is the MPCI
        message id the frame belongs to; it rides every packet header
        and trace record so cross-node captures correlate.

        Returns after the final packet is admitted to the adapter (the
        frame may still be in flight / unacknowledged).
        """
        if dst == self.hal.node_id:
            raise ValueError("pipes do not loop back to self")
        size = len(data)
        self._m_frames.value += 1
        if self.stats.tracer is not None:
            self.stats.trace("pipes", "frame_send", fid=fid, dst=dst, bytes=size,
                             sid=meta.get("sid"), t=meta.get("t"), mid=mid,
                             thr=thread)
        chunks = fragment(size, self.params.packet_payload)
        last_idx = len(chunks) - 1
        # Zero-copy packetization: multi-packet frames slice a read-only
        # view of the caller's immutable snapshot (valid for retransmits
        # and reorder stashes); a single-packet frame is the snapshot
        # itself.
        view = memoryview(data) if last_idx > 0 else None
        for idx, (off, ln) in enumerate(chunks):
            payload = data if view is None else view[off : off + ln]
            buffered = off < buffered_prefix or (off + ln) > size - buffered_suffix
            header: dict[str, Any] = {
                "kind": _DATA,
                "seq": None,  # assigned by admit
                "fid": fid,
                "mid": mid,
                "foff": off,
                "flen": size,
                "buffered": buffered,
            }
            if idx == 0:
                header["meta"] = meta
            yield from self.flows.admit(thread, dst, header, payload)
            # per-packet Pipes protocol work
            yield from self.cpu.execute(thread, self.params.pipe_pkt_us)
            if buffered and ln > 0:
                # staging copy pipe buffer -> HAL network buffer
                self._m_staged.value += ln
                yield from self.cpu.memcpy(thread, ln)
            yield from self.flows.transmit(
                thread, dst, header, payload,
                on_dma_done=on_payload_out if idx == last_idx else None)

    # ---------------------------------------------------------- receiving
    def idle(self) -> bool:
        """True when :meth:`dispatch` would do nothing now: no packet, no
        stall hook, and no active drain for a second caller to park on."""
        return not self._dispatching and self.flows.idle()

    def dispatch(self, thread: str) -> Generator:
        """Drain the adapter and process every pending packet.

        Unlike the LAPI dispatcher, packet processing here is **not**
        re-entrant: the frame machinery installed via ``on_packet``
        keeps per-frame state across yield points, so two contexts
        draining concurrently would interleave a frame's continuation
        ahead of its registration.  A second caller therefore parks
        until the active drain finishes, then returns (any packets that
        arrived meanwhile were consumed by the active drain's loop, or
        will wake the caller's own wait loop again).
        """
        if self.flows.faults is not None:
            yield from self.flows.stall(thread)
        if self._dispatching:
            ev = self.env.event()
            self._dispatch_waiters.append(ev)
            yield ev
            return
        self._dispatching = True
        try:
            yield from self.flows.drain(thread)
        finally:
            self._dispatching = False
            wake_all(self._dispatch_waiters)

    def _deliver(
        self, thread: str, src: int, header: dict[str, Any], payload: bytes
    ) -> Generator:
        """Stash a new packet and release the in-order prefix to MPCI."""
        if header.get("buffered") and payload:
            # reordering copy HAL buffer -> pipe buffer
            self._m_reordered.value += len(payload)
            yield from self.cpu.memcpy(thread, len(payload))
        order = self._order[src]
        order.stash[header["seq"]] = (header, payload)
        while order.next_deliver in order.stash:
            hdr, data = order.stash.pop(order.next_deliver)
            order.next_deliver += 1
            if self.on_packet is None:
                raise RuntimeError("PipeEndpoint.on_packet not installed")
            yield from self.on_packet(thread, src, hdr, data)
