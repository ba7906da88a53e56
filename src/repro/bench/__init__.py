"""Benchmark harness: regenerates every table and figure of the paper.

``FIGURES`` in :mod:`repro.bench.figures` holds each figure's cells,
sweeps, shape check and artifact; ``pytest benchmarks/`` wraps the same
cells in pytest-benchmark targets.
"""

from repro.bench.harness import (
    bandwidth_mbps,
    interrupt_pingpong_us,
    pingpong_us,
    raw_lapi_pingpong_us,
)
from repro.bench.parallel import Cell, run_cells

__all__ = [
    "Cell",
    "bandwidth_mbps",
    "interrupt_pingpong_us",
    "pingpong_us",
    "raw_lapi_pingpong_us",
    "run_cells",
]
