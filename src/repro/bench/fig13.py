"""Figure 13: interrupt-mode latency — native MPI vs MPI-LAPI.

The receiver posts MPI_Irecv and spins on the receive buffer's
*contents*; all progress is interrupt-driven.  Shape target: MPI-LAPI
is consistently and dramatically faster because the native interrupt
handler dwells (hysteresis) hoping to coalesce interrupts, while LAPI's
handler returns as soon as the FIFO is drained.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import interrupt_pingpong_us
from repro.machine import MachineParams

__all__ = ["check_shape"]


def _row(size: int, params: Optional[MachineParams]) -> dict:
    n = interrupt_pingpong_us("native", size, params=params)
    l = interrupt_pingpong_us("lapi-enhanced", size, params=params)
    return {
        "size": size,
        "native": n,
        "lapi-enhanced": l,
        "speedup_x": n / l,
    }


def check_shape(data: list[dict]) -> list[str]:
    problems = []
    for r in data:
        if r["speedup_x"] < 1.3:
            problems.append(
                f"size {r['size']}: MPI-LAPI should win decisively "
                f"(got {r['speedup_x']:.2f}x)"
            )
    return problems
