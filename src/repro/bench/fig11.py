"""Figure 11: polling-mode latency — native MPI vs MPI-LAPI Enhanced.

Shape targets: native slightly faster for very short messages (LAPI's
exposed-interface parameter checking + its larger packet headers);
MPI-LAPI faster beyond a small crossover, with the gap growing as the
native stack's staging copies scale with message size.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import pingpong_us
from repro.bench.sweep import reps_for
from repro.machine import MachineParams

__all__ = ["check_shape"]


def _row(size: int, params: Optional[MachineParams]) -> dict:
    reps = reps_for(size)
    native = pingpong_us("native", size, reps=reps, params=params)
    lapi = pingpong_us("lapi-enhanced", size, reps=reps, params=params)
    return {
        "size": size,
        "native": native,
        "lapi-enhanced": lapi,
        "improvement_%": 100.0 * (native - lapi) / native,
    }


def check_shape(data: list[dict]) -> list[str]:
    problems = []
    tiny = [r for r in data if r["size"] <= 16]
    if not any(r["native"] <= r["lapi-enhanced"] for r in tiny):
        problems.append("native not ahead for very short messages")
    big = [r for r in data if r["size"] >= 1024]
    for r in big:
        if r["improvement_%"] <= 0:
            problems.append(f"size {r['size']}: MPI-LAPI not ahead")
    return problems
