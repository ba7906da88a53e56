"""BT — Block-Tridiagonal ADI solver (NPB kernel, mini form).

Alternating-direction implicit iteration on a 2-D grid distributed by
rows: the x-direction tridiagonal solves are local; the y-direction
solves run the Thomas algorithm *pipelined* across ranks — a forward
elimination wave down the machine and a back-substitution wave up, with
medium-sized (one coefficient row per column chunk) messages.  That
pipelined-line-solve pattern is BT's signature.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["bt", "serial_reference"]

_DIAG = 4.0
_OFF = -1.0


@shared
def _init_state(n: int) -> np.ndarray:
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return (np.sin(0.21 * i) * np.cos(0.17 * j) + 0.01 * (i + j)).astype(np.float64)


def _thomas_rows(rhs: np.ndarray) -> np.ndarray:
    """Solve the constant tridiagonal system along axis 0 for each column."""
    n = rhs.shape[0]
    cp = np.zeros_like(rhs)
    dp = np.zeros_like(rhs)
    cp[0] = _OFF / _DIAG
    dp[0] = rhs[0] / _DIAG
    for i in range(1, n):
        denom = _DIAG - _OFF * cp[i - 1]
        cp[i] = _OFF / denom
        dp[i] = (rhs[i] - _OFF * dp[i - 1]) / denom
    x = np.zeros_like(rhs)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


@shared
def serial_reference(n: int = 64, iters: int = 4) -> np.ndarray:
    u = _init_state(n)
    for _ in range(iters):
        u = _thomas_rows(u.T).T  # x-direction solves (along columns of u.T)
        u = _thomas_rows(u)      # y-direction solves
        u = u + 0.01 * np.sin(u)
    return u


@register("bt")
def bt(comm, rank, size, n: int = 64, iters: int = 4, chunk: int = 32):
    """ADI iterations with pipelined y-direction Thomas solves."""
    if n % size:
        raise ValueError("n must be divisible by comm size")
    rows = n // size
    lo = rank * rows
    u = _init_state(n)[lo : lo + rows].copy()  # (rows, n)
    nchunks = (n + chunk - 1) // chunk

    for _ in range(iters):
        # ---- x-direction: tridiagonal along each local row (local work)
        u = _thomas_rows(u.T).T
        yield from compute(comm, 8.0 * rows * n)

        # ---- y-direction: pipelined Thomas down then up, per column chunk
        cp = np.zeros((rows, n))
        dp = np.zeros((rows, n))
        for c in range(nchunks):
            c0, c1 = c * chunk, min((c + 1) * chunk, n)
            w = c1 - c0
            if rank == 0:
                cp[0, c0:c1] = _OFF / _DIAG
                dp[0, c0:c1] = u[0, c0:c1] / _DIAG
                start = 1
            else:
                prev = np.zeros(2 * w)
                yield from comm.recv(prev, source=rank - 1, tag=60 + c)
                denom = _DIAG - _OFF * prev[:w]
                cp[0, c0:c1] = _OFF / denom
                dp[0, c0:c1] = (u[0, c0:c1] - _OFF * prev[w:]) / denom
                start = 1
            for i in range(start, rows):
                denom = _DIAG - _OFF * cp[i - 1, c0:c1]
                cp[i, c0:c1] = _OFF / denom
                dp[i, c0:c1] = (u[i, c0:c1] - _OFF * dp[i - 1, c0:c1]) / denom
            yield from compute(comm, 6.0 * rows * w)
            if rank < size - 1:
                yield from comm.send(
                    np.concatenate([cp[-1, c0:c1], dp[-1, c0:c1]]),
                    dest=rank + 1, tag=60 + c,
                )
        x = np.zeros((rows, n))
        for c in range(nchunks):
            c0, c1 = c * chunk, min((c + 1) * chunk, n)
            w = c1 - c0
            if rank == size - 1:
                x[-1, c0:c1] = dp[-1, c0:c1]
                start = rows - 2
            else:
                nxt = np.zeros(w)
                yield from comm.recv(nxt, source=rank + 1, tag=80 + c)
                x[-1, c0:c1] = dp[-1, c0:c1] - cp[-1, c0:c1] * nxt
                start = rows - 2
            for i in range(start, -1, -1):
                x[i, c0:c1] = dp[i, c0:c1] - cp[i, c0:c1] * x[i + 1, c0:c1]
            yield from compute(comm, 3.0 * rows * w)
            if rank > 0:
                yield from comm.send(x[0, c0:c1].copy(), dest=rank - 1, tag=80 + c)
        u = x + 0.01 * np.sin(x)
        yield from compute(comm, 4.0 * rows * n)

    blocks = np.zeros((size, rows, n))
    yield from comm.allgather(u, blocks)
    result = blocks.reshape(n, n)
    ref = serial_reference(n, iters)
    err = float(np.max(np.abs(result - ref)))
    return NasOutcome("bt", err < 1e-9, float(np.linalg.norm(result)), detail=err)
