"""Packet-layer services shared by Pipes and LAPI."""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.machine.cpu import Cpu
from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.network.adapter import Adapter
from repro.network.packet import Packet
from repro.sim import Environment, Event

__all__ = ["Hal", "fragment"]


def fragment(nbytes: int, max_payload: int) -> list[tuple[int, int]]:
    """Split ``nbytes`` into (offset, length) packet chunks.

    A zero-byte message still occupies one (empty) packet — control
    messages and zero-length MPI sends ride header-only packets.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if max_payload < 1:
        raise ValueError("max_payload must be >= 1")
    if nbytes == 0:
        return [(0, 0)]
    return [
        (off, min(max_payload, nbytes - off)) for off in range(0, nbytes, max_payload)
    ]


class Hal:
    """One node's packet layer.

    ``header_bytes`` is fixed per protocol instance: the native stack and
    LAPI pay different on-wire header sizes (paper §6.1).
    """

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        adapter: Adapter,
        params: MachineParams,
        stats: NodeStats,
        header_bytes: int,
    ):
        self.env = env
        self.cpu = cpu
        self.adapter = adapter
        self.params = params
        self.stats = stats
        self.header_bytes = header_bytes

    @property
    def node_id(self) -> int:
        return self.adapter.node_id

    # ------------------------------------------------------------------
    def send(
        self,
        thread: str,
        dst: int,
        header: dict[str, Any],
        payload: bytes,
        on_dma_done: Optional[Event] = None,
    ) -> Generator:
        """Send one packet: charge software cost, then hand to adapter.

        The CPU is *not* held while waiting for adapter FIFO space.
        """
        if len(payload) > self.params.packet_payload:
            raise ValueError(
                f"payload {len(payload)}B exceeds packet_payload "
                f"{self.params.packet_payload}B"
            )
        yield from self.cpu.execute(thread, self.params.hal_send_pkt_us)
        pkt = Packet(
            src=self.node_id,
            dst=dst,
            header=header,
            payload=payload,
            header_bytes=self.header_bytes,
        )
        yield self.adapter.enqueue_send(pkt, on_dma_done)

    # ------------------------------------------------------------------
    def poll(self) -> Optional[Packet]:
        """Non-blocking receive of the next packet (cost charged separately
        via :meth:`charge_recv` so ISRs can batch)."""
        return self.adapter.poll()

    def charge_recv(self, thread: str) -> Generator:
        """Per-packet receive-side HAL cost."""
        yield from self.cpu.execute(thread, self.params.hal_recv_pkt_us)

    def wait_rx(self) -> Event:
        return self.adapter.wait_rx()

    def arm_rx(self, ev: Event) -> None:
        self.adapter.arm_rx(ev)

    @property
    def rx_pending(self) -> int:
        return self.adapter.rx_pending
