"""§6.2 — NAS Parallel Benchmarks on 4 nodes: native MPI vs MPI-LAPI.

Shape targets (paper): MPI-LAPI performs consistently at least as well
as the native MPI; the communication-bound kernels (LU, IS, CG, BT, FT)
improve clearly, while EP, MG and SP — dominated by local compute or by
tiny-message halo traffic — move only a little.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import preset
from repro.machine import MachineParams
from repro.nas import run_kernel

__all__ = ["FLAT", "IMPROVERS", "KERNEL_ORDER", "check_shape", "run_one"]

KERNEL_ORDER = ("lu", "is", "cg", "bt", "ft", "ep", "mg", "sp")

#: the paper's comm-bound / compute-bound grouping
IMPROVERS = ("lu", "is", "cg", "bt", "ft")
FLAT = ("ep", "mg", "sp")


def run_one(kernel: str, stack: str, nodes: int = 4,
            params: Optional[MachineParams] = None, seed: int = 0):
    cluster = preset("paper_4node", num_nodes=nodes, stack=stack,
                     params=params, seed=seed).build()
    result = run_kernel(kernel, cluster)
    outcomes = result.values
    if not all(o.verified for o in outcomes):
        raise AssertionError(
            f"{kernel} on {stack}: verification FAILED "
            f"({[o.detail for o in outcomes]})"
        )
    return result.elapsed_us


def _row(kernel: str, params: Optional[MachineParams]) -> dict:
    native = run_one(kernel, "native", params=params)
    lapi = run_one(kernel, "lapi-enhanced", params=params)
    return {
        "kernel": kernel.upper(),
        "native_us": native,
        "mpi_lapi_us": lapi,
        "improvement_%": 100.0 * (native - lapi) / native,
    }


def check_shape(data: list[dict]) -> list[str]:
    problems = []
    by_kernel = {r["kernel"].lower(): r for r in data}
    for k in KERNEL_ORDER:
        if by_kernel[k]["improvement_%"] < -2.0:
            problems.append(f"{k}: MPI-LAPI slower than native")
    improver_avg = sum(by_kernel[k]["improvement_%"] for k in IMPROVERS) / len(IMPROVERS)
    flat_avg = sum(by_kernel[k]["improvement_%"] for k in FLAT) / len(FLAT)
    if improver_avg <= flat_avg:
        problems.append(
            f"comm-bound kernels should improve more "
            f"({improver_avg:.1f}% vs {flat_avg:.1f}%)"
        )
    return problems
