"""MG — Multigrid (NPB kernel).

V-cycles on a 1D Poisson problem with the fine grid block-distributed:
every (Jacobi) smoothing sweep exchanges one-point ghost cells with
both neighbours — frequent, tiny nearest-neighbour messages against
substantial local compute, which is why MG was nearly
stack-insensitive in the paper.  Coarse grids are replicated (as NPB
MG does near the bottom of the V), costing one residual allgather per
cycle.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["mg", "serial_reference"]


@shared
def _rhs(n: int) -> np.ndarray:
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    return np.sin(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x)


def _smooth_serial(u, f, h2, sweeps):
    for _ in range(sweeps):
        nxt = u.copy()
        nxt[1:-1] = 0.5 * (u[:-2] + u[2:] - h2 * f[1:-1])
        u = nxt
    return u


def _vcycle_serial(u, f, h2, level, max_level):
    u = _smooth_serial(u, f, h2, 2)
    if level < max_level and len(u) > 8:
        r = np.zeros_like(u)
        r[1:-1] = f[1:-1] - (u[:-2] - 2 * u[1:-1] + u[2:]) / h2
        rc = r[::2].copy()
        ec = np.zeros_like(rc)
        ec = _vcycle_serial(ec, rc, 4 * h2, level + 1, max_level)
        e = np.zeros_like(u)
        e[::2] = ec
        k = len(e[1:-1:2])
        e[1:-1:2] = 0.5 * (ec[:k] + ec[1 : k + 1])
        u = u + e
    return _smooth_serial(u, f, h2, 2)


@shared
def serial_reference(n: int, cycles: int = 3) -> np.ndarray:
    f = _rhs(n)
    u = np.zeros(n)
    h2 = (1.0 / n) ** 2
    for _ in range(cycles):
        u = _vcycle_serial(u, f, h2, 0, 4)
    return u


@register("mg")
def mg(comm, rank, size, n: int = 512, cycles: int = 3):
    """Distributed V-cycles, bit-identical to the serial recursion."""
    if n % size:
        raise ValueError("n must be divisible by comm size")
    local_n = n // size
    lo = rank * local_n
    f = _rhs(n)
    f_own = f[lo : lo + local_n]
    u_own = np.zeros(local_n)
    lg = np.zeros(1)  # ghost from the left neighbour
    rg = np.zeros(1)  # ghost from the right neighbour
    h2 = (1.0 / n) ** 2

    def exchange():
        """Swap one-point halos with both neighbours (Jacobi stencil)."""
        if rank > 0 and rank < size - 1:
            yield from comm.sendrecv(np.array([u_own[-1]]), rank + 1, lg,
                                     rank - 1, 20, 20)
            yield from comm.sendrecv(np.array([u_own[0]]), rank - 1, rg,
                                     rank + 1, 21, 21)
        elif rank > 0:  # rightmost
            yield from comm.recv(lg, rank - 1, 20)
            yield from comm.send(np.array([u_own[0]]), rank - 1, 21)
        elif rank < size - 1:  # leftmost
            yield from comm.send(np.array([u_own[-1]]), rank + 1, 20)
            yield from comm.recv(rg, rank + 1, 21)

    def smooth(sweeps: int):
        for _ in range(sweeps):
            yield from exchange()
            left = np.empty(local_n)
            right = np.empty(local_n)
            left[1:] = u_own[:-1]
            left[0] = lg[0]
            right[:-1] = u_own[1:]
            right[-1] = rg[0]
            nxt = 0.5 * (left + right - h2 * f_own)
            # physical boundary points stay fixed
            if rank == 0:
                nxt[0] = u_own[0]
            if rank == size - 1:
                nxt[-1] = u_own[-1]
            u_own[:] = nxt
            yield from compute(comm, 12.0 * local_n)

    for _ in range(cycles):
        yield from smooth(2)
        # residual on owned points (needs halos once more)
        yield from exchange()
        left = np.empty(local_n)
        right = np.empty(local_n)
        left[1:] = u_own[:-1]
        left[0] = lg[0]
        right[:-1] = u_own[1:]
        right[-1] = rg[0]
        r_own = f_own - (left - 2 * u_own + right) / h2
        if rank == 0:
            r_own[0] = 0.0
        if rank == size - 1:
            r_own[-1] = 0.0
        yield from compute(comm, 5.0 * local_n)

        # coarse grids replicated: one allgather of the residual per cycle
        r_blocks = np.zeros((size, local_n))
        yield from comm.allgather(r_own, r_blocks)
        r = r_blocks.ravel()
        rc = r[::2].copy()
        ec = np.zeros_like(rc)
        ec = _vcycle_serial(ec, rc, 4 * h2, 1, 4)
        yield from compute(comm, 40.0 * local_n)
        e = np.zeros(n)
        e[::2] = ec
        k = len(e[1:-1:2])
        e[1:-1:2] = 0.5 * (ec[:k] + ec[1 : k + 1])
        u_own += e[lo : lo + local_n]
        yield from smooth(2)

    # final assembly for verification
    blocks = np.zeros((size, local_n))
    yield from comm.allgather(u_own, blocks)
    u = blocks.ravel()
    ref = serial_reference(n, cycles)
    err = float(np.max(np.abs(u - ref)))
    return NasOutcome("mg", err < 1e-10, float(np.linalg.norm(u)), detail=err)
