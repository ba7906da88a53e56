"""SP — Scalar-Pentadiagonal ADI solver (NPB kernel, mini form).

Same ADI structure as BT, but the distributed-direction line solves use
the *transpose* strategy: alltoall the grid so y becomes local, solve,
and alltoall back.  Two full-volume transposes per iteration against a
heavier (pentadiagonal) local solve — SP is compute-rich relative to
its communication, which is why the paper saw little stack sensitivity.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["sp", "serial_reference"]

_D0 = 6.0
_D1 = -2.0
_D2 = 0.5


@shared
def _penta_matrix(n: int) -> np.ndarray:
    """The constant pentadiagonal matrix of order ``n``, dense."""
    A = np.zeros((n, n))
    idx = np.arange(n)
    A[idx, idx] = _D0
    A[idx[:-1], idx[:-1] + 1] = A[idx[:-1] + 1, idx[:-1]] = _D1
    A[idx[:-2], idx[:-2] + 2] = A[idx[:-2] + 2, idx[:-2]] = _D2
    return A


def _penta_solve(rhs: np.ndarray) -> np.ndarray:
    """Solve the constant pentadiagonal system along axis 0 (columns)."""
    # small n keeps the dense solve cheap and exact
    return np.linalg.solve(_penta_matrix(rhs.shape[0]), rhs)


@shared
def _init_state(n: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return (np.cos(0.13 * i) * np.sin(0.19 * j) + 0.02 * i).astype(np.float64)


@shared
def serial_reference(n: int = 64, iters: int = 3) -> np.ndarray:
    u = _init_state(n)
    for _ in range(iters):
        u = _penta_solve(u.T).T  # x-direction
        u = _penta_solve(u)      # y-direction
        u = u + 0.02 * np.tanh(u)
    return u


def _transpose(comm, rank, size, local: np.ndarray) -> np.ndarray:
    """Global 2-D transpose of a row-distributed matrix via alltoall.

    ``local`` is (rows, n); returns the transposed matrix's local slab
    (rows, n) where the new rows are the old columns.
    """
    rows, n = local.shape
    blocks = np.ascontiguousarray(
        np.stack([local[:, d * rows : (d + 1) * rows] for d in range(size)])
    )  # (size, rows, rows)
    recv = np.zeros_like(blocks)
    yield from comm.alltoall(blocks.reshape(size, -1), recv.reshape(size, -1))
    # block from rank r holds old rows r*rows..(r+1)*rows of my columns
    out = np.concatenate([recv[r].T for r in range(size)], axis=1)
    return out  # (rows, n): my columns as rows


@register("sp")
def sp(comm, rank, size, n: int = 64, iters: int = 3):
    """ADI iterations with transpose-based y-direction solves."""
    if n % size:
        raise ValueError("n must be divisible by comm size")
    rows = n // size
    lo = rank * rows
    u = _init_state(n)[lo : lo + rows].copy()

    for _ in range(iters):
        # x-direction: local pentadiagonal solves along rows (SP's
        # factor/solve chain is flop-heavy: ~70 flops per point)
        u = _penta_solve(u.T).T
        yield from compute(comm, 70.0 * rows * n)

        # y-direction: transpose, solve locally, transpose back
        ut = yield from _transpose(comm, rank, size, u)
        ut = _penta_solve(ut.T).T
        yield from compute(comm, 70.0 * rows * n)
        u = yield from _transpose(comm, rank, size, ut)

        u = u + 0.02 * np.tanh(u)
        yield from compute(comm, 25.0 * rows * n)

    blocks = np.zeros((size, rows, n))
    yield from comm.allgather(u, blocks)
    result = blocks.reshape(n, n)
    ref = serial_reference(n, iters)
    err = float(np.max(np.abs(result - ref)))
    return NasOutcome("sp", err < 1e-9, float(np.linalg.norm(result)), detail=err)
