"""CG — Conjugate Gradient (NPB kernel).

Solves A x = b for a deterministic symmetric positive-definite banded
matrix, rows distributed across ranks.  Per iteration: an allgather of
the search direction (medium message) and three dot-product allreduces
(tiny) — CG mixes latency- and bandwidth-sensitivity.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["cg", "build_system", "serial_reference"]


@shared
def build_system(n: int):
    """SPD banded test matrix (diagonally dominant) and RHS."""
    idx = np.arange(n)
    A = np.zeros((n, n))
    A[idx, idx] = 4.0 + (idx % 3)
    off = np.arange(n - 1)
    A[off, off + 1] = A[off + 1, off] = -1.0
    off = np.arange(n - 5)
    A[off, off + 5] = A[off + 5, off] = -0.5
    b = np.cos(idx * 0.7) + 1.1
    return A, b


@shared
def serial_reference(n: int) -> np.ndarray:
    A, b = build_system(n)
    return np.linalg.solve(A, b)


@register("cg")
def cg(comm, rank, size, n: int = 256, iters: int = 25):
    """Distributed CG; returns residual-based verification."""
    if n % size:
        raise ValueError("n must be divisible by comm size")
    rows = n // size
    lo = rank * rows
    A, b = build_system(n)
    A_local = A[lo : lo + rows]  # my block of rows
    b_local = b[lo : lo + rows]

    x_local = np.zeros(rows)
    r_local = b_local.copy()
    p_local = r_local.copy()
    p_full = np.zeros((size, rows))
    scratch = np.zeros(1)

    rs = np.zeros(1)
    yield from comm.allreduce(np.array([r_local @ r_local]), rs, op="sum")
    rs_old = float(rs[0])

    for _ in range(iters):
        # gather the full search direction for the local matvec
        yield from comm.allgather(p_local, p_full)
        p = p_full.ravel()
        Ap_local = A_local @ p
        # NPB CG's matrix is sparse (~13 nonzeros/row in our band
        # structure); the dense matvec above is only for exactness
        yield from compute(comm, 2.0 * rows * 13)

        yield from comm.allreduce(
            np.array([p[lo : lo + rows] @ Ap_local]), scratch, op="sum"
        )
        pAp = float(scratch[0])
        alpha = rs_old / pAp
        x_local += alpha * p[lo : lo + rows]
        r_local -= alpha * Ap_local
        yield from compute(comm, 4.0 * rows)

        yield from comm.allreduce(np.array([r_local @ r_local]), scratch, op="sum")
        rs_new = float(scratch[0])
        if rs_new < 1e-22:
            break
        p_local = r_local + (rs_new / rs_old) * p[lo : lo + rows]
        rs_old = rs_new

    # verification: assemble and compare against the serial solve
    x_full = np.zeros((size, rows))
    yield from comm.allgather(x_local, x_full)
    x = x_full.ravel()
    ref = serial_reference(n)
    err = float(np.max(np.abs(x - ref)))
    return NasOutcome("cg", err < 1e-6, float(np.linalg.norm(x)), detail=err)
