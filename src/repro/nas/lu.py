"""LU — SSOR wavefront solver (NPB kernel).

Gauss-Seidel-ordered sweeps over a 2-D grid distributed by rows: each
rank needs its upper neighbour's freshly-updated boundary row before it
can start, so the sweep pipelines down the machine — and the boundary
row is shipped in small column-block segments, producing LU's
signature flood of small latency-bound messages (the benchmark where
the paper reports the biggest MPI-LAPI win).
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["lu", "serial_reference"]

OMEGA = 1.2


@shared
def _init_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u = np.where((i == 0) | (j == 0) | (i == n - 1) | (j == n - 1),
                 np.sin(0.1 * (i + 2 * j)), 0.0)
    f = 0.05 * np.cos(0.2 * i) * np.sin(0.15 * j)
    return u.astype(np.float64), f


def _sweep_serial(u: np.ndarray, f: np.ndarray, block: int = 16) -> None:
    """One forward SSOR sweep in wavefront order: column blocks outer,
    rows inner — the exact update order the pipelined version uses."""
    n = u.shape[0]
    nblocks = (n - 2 + block - 1) // block
    for b in range(nblocks):
        c0 = 1 + b * block
        c1 = min(1 + (b + 1) * block, n - 1)
        for i in range(1, n - 1):
            u[i, c0:c1] = (1 - OMEGA) * u[i, c0:c1] + OMEGA * 0.25 * (
                u[i - 1, c0:c1] + u[i + 1, c0:c1]
                + u[i, c0 - 1 : c1 - 1] + u[i, c0 + 1 : c1 + 1]
                - f[i, c0:c1]
            )


@shared
def serial_reference(n: int = 64, sweeps: int = 6, block: int = 16) -> np.ndarray:
    u, f = _init_grid(n)
    u = u.copy()  # the shared grid is read-only; sweep a private copy
    for _ in range(sweeps):
        _sweep_serial(u, f, block)
    return u


@register("lu")
def lu(comm, rank, size, n: int = 64, sweeps: int = 6, block: int = 16):
    """Pipelined SSOR sweeps; column-blocked boundary messages."""
    if n % size:
        raise ValueError("n must be divisible by comm size")
    rows = n // size
    lo = rank * rows
    u_full, f = _init_grid(n)
    # each rank owns rows [lo, lo+rows); it also keeps the two halo rows
    u = u_full[max(lo - 1, 0) : min(lo + rows + 1, n)].copy()
    top_halo = 1 if rank > 0 else 0  # index of my first owned row in `u`
    f_own = f[lo : lo + rows]
    nblocks = (n - 2 + block - 1) // block

    for sweep in range(sweeps):
        # Pipelined over column blocks: receive the updated boundary row
        # segment from above, update the block for all my rows, pass my
        # last row's segment down.  Small (block*8-byte) messages.
        for b in range(nblocks):
            c0 = 1 + b * block
            c1 = min(1 + (b + 1) * block, n - 1)
            width = c1 - c0
            if rank > 0:
                seg = np.zeros(width)
                yield from comm.recv(seg, source=rank - 1, tag=40 + b)
                u[0, c0:c1] = seg
            for li in range(rows):
                gi = lo + li
                if gi == 0 or gi == n - 1:
                    continue
                i = top_halo + li
                u[i, c0:c1] = (1 - OMEGA) * u[i, c0:c1] + OMEGA * 0.25 * (
                    u[i - 1, c0:c1] + u[i + 1, c0:c1]
                    + u[i, c0 - 1 : c1 - 1] + u[i, c0 + 1 : c1 + 1]
                    - f_own[li, c0:c1]
                )
            yield from compute(comm, 8.0 * rows * width)
            if rank < size - 1:
                yield from comm.send(
                    u[top_halo + rows - 1, c0:c1].copy(), dest=rank + 1, tag=40 + b
                )
        # after the sweep, refresh the *lower* halo (Gauss-Seidel uses the
        # previous sweep's value of row lo+rows)
        if rank < size - 1:
            lower = np.zeros(n)
            yield from comm.recv(lower, source=rank + 1, tag=90)
            u[top_halo + rows] = lower
        if rank > 0:
            yield from comm.send(u[top_halo].copy(), dest=rank - 1, tag=90)

    # assemble and verify
    blocks_all = np.zeros((size, rows, n))
    yield from comm.allgather(u[top_halo : top_halo + rows].copy(), blocks_all)
    result = blocks_all.reshape(n, n)
    ref = serial_reference(n, sweeps, block)
    err = float(np.max(np.abs(result - ref)))
    return NasOutcome("lu", err < 1e-10, float(np.linalg.norm(result)), detail=err)
