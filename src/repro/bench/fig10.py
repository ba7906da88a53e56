"""Figure 10: raw LAPI vs the three MPI-LAPI generations.

Paper shape targets: Base ≫ Counters > Enhanced ≈ RAW LAPI; Counters
tracks Enhanced in the eager range and Base in the rendezvous range
(its counters only replace completion handlers for eager messages).
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import pingpong_us, raw_lapi_pingpong_us
from repro.bench.sweep import reps_for
from repro.machine import MachineParams

__all__ = ["check_shape"]


def _row(size: int, params: Optional[MachineParams]) -> dict:
    reps = reps_for(size)
    row = {"size": size}
    row["raw-lapi"] = raw_lapi_pingpong_us(size, reps=reps, params=params)
    for stack in ("lapi-base", "lapi-counters", "lapi-enhanced"):
        row[stack] = pingpong_us(stack, size, reps=reps, params=params)
    return row


def check_shape(data: list[dict]) -> list[str]:
    """Return a list of shape violations (empty == reproduces the figure)."""
    problems = []
    for row in data:
        s = row["size"]
        if not row["lapi-base"] > row["lapi-enhanced"]:
            problems.append(f"size {s}: base not slower than enhanced")
        if not row["lapi-base"] >= row["lapi-counters"] * 0.999:
            problems.append(f"size {s}: counters slower than base")
        if not row["lapi-enhanced"] <= row["raw-lapi"] * 1.6:
            problems.append(f"size {s}: enhanced too far above raw LAPI")
    return problems
