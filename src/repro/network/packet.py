"""The unit of transfer on the simulated switch."""

from __future__ import annotations

import itertools
from typing import Any, Optional

_pkt_ids = itertools.count()


class Packet:
    """One switch packet.

    ``header`` is protocol metadata (Pipes or LAPI fields); its on-wire
    size is accounted separately via ``header_bytes`` so both stacks pay
    for their (different) header sizes, as the paper discusses in §6.1.

    ``payload`` is *real* data — bytes (or a read-only ``memoryview``
    of the sender's snapshot) move end to end through the simulation, so
    data integrity is checked by the tests, not assumed.
    """

    __slots__ = ("src", "dst", "header", "payload", "header_bytes", "pkt_id",
                 "route", "wire_bytes")

    def __init__(self, src: int, dst: int, header: dict[str, Any], payload: bytes,
                 header_bytes: int, pkt_id: Optional[int] = None, route: int = 0):
        self.src = src
        self.dst = dst
        self.header = header
        self.payload = payload
        self.header_bytes = header_bytes
        self.pkt_id = next(_pkt_ids) if pkt_id is None else pkt_id
        self.route = route
        #: total bytes serialised onto the link (header + payload), fixed
        #: at construction: the adapter reads it at every stage
        self.wire_bytes = header_bytes + len(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.header.get("kind", "?")
        return (
            f"<Packet #{self.pkt_id} {self.src}->{self.dst} kind={kind} "
            f"route={self.route} {len(self.payload)}B>"
        )
