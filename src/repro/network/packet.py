"""The unit of transfer on the simulated switch."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

_pkt_ids = itertools.count()


@dataclass(slots=True)
class Packet:
    """One switch packet.

    ``header`` is protocol metadata (Pipes or LAPI fields); its on-wire
    size is accounted separately via ``header_bytes`` so both stacks pay
    for their (different) header sizes, as the paper discusses in §6.1.

    ``payload`` is *real* data — bytes (or a read-only ``memoryview``
    of the sender's snapshot) move end to end through the simulation, so
    data integrity is checked by the tests, not assumed.
    """

    src: int
    dst: int
    header: dict[str, Any]
    payload: bytes
    header_bytes: int
    pkt_id: int = field(default_factory=lambda: next(_pkt_ids))
    route: int = 0
    #: total bytes serialised onto the link (header + payload), fixed at
    #: construction: the adapter reads it at every stage of the packet
    wire_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_bytes = self.header_bytes + len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = self.header.get("kind", "?")
        return (
            f"<Packet #{self.pkt_id} {self.src}->{self.dst} kind={kind} "
            f"route={self.route} {len(self.payload)}B>"
        )
