"""Figure 12: streaming bandwidth — native MPI vs MPI-LAPI Enhanced.

Shape targets: MPI-LAPI's bandwidth exceeds the native stack's over a
wide range of message sizes (the paper quotes roughly a quarter more at
its highlighted size); the curves converge at very large messages where
both become I/O-bus-bound.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import bandwidth_mbps
from repro.machine import MachineParams

__all__ = ["check_shape"]


def _count_for(size: int) -> int:
    if size >= 256 * 1024:
        return 8
    if size >= 16 * 1024:
        return 16
    return 24


def _row(size: int, params: Optional[MachineParams]) -> dict:
    n = bandwidth_mbps("native", size, count=_count_for(size), params=params)
    l = bandwidth_mbps("lapi-enhanced", size, count=_count_for(size), params=params)
    return {
        "size": size,
        "native": n,
        "lapi-enhanced": l,
        "improvement_%": 100.0 * (l - n) / n,
    }


def check_shape(data: list[dict]) -> list[str]:
    problems = []
    mid = [r for r in data if 1024 <= r["size"] <= 64 * 1024]
    for r in mid:
        if r["improvement_%"] < 5.0:
            problems.append(f"size {r['size']}: expected a clear MPI-LAPI win")
    if mid and max(r["improvement_%"] for r in mid) < 20.0:
        problems.append("expected ~25% improvement somewhere in the mid range")
    huge = [r for r in data if r["size"] >= 512 * 1024]
    for r in huge:
        if abs(r["improvement_%"]) > 15.0:
            problems.append(f"size {r['size']}: curves should converge")
    return problems
