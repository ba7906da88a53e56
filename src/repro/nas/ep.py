"""EP — Embarrassingly Parallel (NPB kernel).

Gaussian deviates via the NPB linear congruential generator and
Box-Muller; each rank owns a contiguous slice of the random sequence
(LCG leapfrogged with modular exponentiation).  The only communication
is the final 10-bin annulus-count + sum reduction — EP is the paper's
canonical "no improvement to be had" benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["ep", "serial_reference"]

_A = 5 ** 13
_MOD = 1 << 46
_SEED = 271828183


def _lcg_skip(seed: int, k: int) -> int:
    """Jump the NPB LCG forward k steps: seed * A^k mod 2^46."""
    return (seed * pow(_A, k, _MOD)) % _MOD


def _generate(seed: int, n: int) -> np.ndarray:
    """n uniform deviates in (0, 1) from the NPB LCG."""
    out = np.empty(n, dtype=np.float64)
    x = seed
    for i in range(n):
        x = (x * _A) % _MOD
        out[i] = x / _MOD
    return out


def _tally(u: np.ndarray):
    """Box-Muller acceptance + annulus counts (the EP computation)."""
    x = 2.0 * u[0::2] - 1.0
    y = 2.0 * u[1::2] - 1.0
    t = x * x + y * y
    ok = (t <= 1.0) & (t > 0.0)
    x, y, t = x[ok], y[ok], t[ok]
    f = np.sqrt(-2.0 * np.log(t) / t)
    gx, gy = x * f, y * f
    m = np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64)
    counts = np.bincount(np.clip(m, 0, 9), minlength=10).astype(np.float64)
    return counts, float(gx.sum()), float(gy.sum())


@shared
def serial_reference(n_pairs: int):
    """Single-process answer for verification."""
    u = _generate(_SEED, 2 * n_pairs)
    return _tally(u)


@register("ep")
def ep(comm, rank, size, n_pairs: int = 4096):
    """Run EP over ``n_pairs`` total Box-Muller pairs."""
    per = n_pairs // size
    lo = rank * per
    hi = n_pairs if rank == size - 1 else lo + per
    seed = _lcg_skip(_SEED, 2 * lo)
    u = _generate(seed, 2 * (hi - lo))
    counts, sx, sy = _tally(u)
    # EP's dominant cost: ~60 flops per pair (log, sqrt, divides)
    yield from compute(comm, 60.0 * (hi - lo))

    local = np.concatenate([counts, [sx, sy]])
    total = np.zeros_like(local)
    yield from comm.allreduce(local, total, op="sum")

    ref_counts, ref_sx, ref_sy = serial_reference(n_pairs)
    verified = (
        np.allclose(total[:10], ref_counts)
        and abs(total[10] - ref_sx) < 1e-8 * max(1.0, abs(ref_sx))
        and abs(total[11] - ref_sy) < 1e-8 * max(1.0, abs(ref_sy))
    )
    return NasOutcome("ep", bool(verified), float(total[10] + total[11]),
                      detail=(total[:10], float(total[10]), float(total[11])))
