"""FT — 3D FFT (NPB kernel).

Spectral solver: forward 3-D FFT of a deterministic field, a few
time-evolution steps in spectral space, checksum of selected modes.
The grid is slab-distributed on the first axis; the FFT along that axis
requires a full-volume alltoall transpose each way — FT moves the
largest messages of the suite, the regime where MPI-LAPI's bandwidth
advantage shows.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["ft", "serial_reference"]


@shared
def _field(shape) -> np.ndarray:
    nx, ny, nz = shape
    i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                          indexing="ij")
    return np.exp(1j * (0.7 * i + 0.3 * j + 0.11 * k)) + 0.25 * np.cos(i * j % 7)


@shared
def _evolve_factor(shape, t: int) -> np.ndarray:
    nx, ny, nz = shape
    kx = np.minimum(np.arange(nx), nx - np.arange(nx))
    ky = np.minimum(np.arange(ny), ny - np.arange(ny))
    kz = np.minimum(np.arange(nz), nz - np.arange(nz))
    k2 = (kx[:, None, None] ** 2 + ky[None, :, None] ** 2 + kz[None, None, :] ** 2)
    return np.exp(-1e-4 * k2 * t)


def _checksum(spec: np.ndarray, t: int) -> complex:
    nx, ny, nz = spec.shape
    total = 0j
    for q in range(1, 17):
        total += spec[q % nx, (3 * q) % ny, (5 * q) % nz]
    return total / 16.0


@shared
def serial_reference(shape=(16, 16, 16), steps: int = 3) -> tuple[complex, ...]:
    u = _field(shape)
    spec = np.fft.fftn(u)
    sums = []
    for t in range(1, steps + 1):
        evolved = spec * _evolve_factor(shape, t)
        sums.append(_checksum(evolved, t))
    return tuple(sums)


@register("ft")
def ft(comm, rank, size, shape=(16, 16, 16), steps: int = 3):
    """Distributed 3-D FFT with alltoall transposes."""
    shape = tuple(shape)  # hashable: it keys the shared field and reference
    nx, ny, nz = shape
    if nx % size or ny % size:
        raise ValueError("first two dims must be divisible by comm size")
    sx = nx // size  # my slab thickness along x
    full = _field(shape)
    slab = full[rank * sx : (rank + 1) * sx].copy()  # (sx, ny, nz)

    # FFT along y and z: purely local
    slab = np.fft.fft(np.fft.fft(slab, axis=1), axis=2)
    yield from compute(comm, 5.0 * sx * ny * nz * (np.log2(ny) + np.log2(nz)))

    # transpose x <-> y so the x-axis becomes local: alltoall of blocks
    # send block d: slab[:, d*sy:(d+1)*sy, :]  -> recv (size, sx, sy, nz)
    sy = ny // size
    sendblocks = np.ascontiguousarray(
        np.stack([slab[:, d * sy : (d + 1) * sy, :] for d in range(size)])
    )
    recvblocks = np.zeros_like(sendblocks)
    yield from comm.alltoall(
        sendblocks.view(np.float64).reshape(size, -1),
        recvblocks.view(np.float64).reshape(size, -1),
    )
    # assemble (nx, sy, nz): source rank r contributed x-rows r*sx..(r+1)*sx
    xlocal = np.concatenate([recvblocks[r] for r in range(size)], axis=0)

    # FFT along x (now local)
    xlocal = np.fft.fft(xlocal, axis=0)
    yield from compute(comm, 5.0 * nx * sy * nz * np.log2(nx))

    # evolve + checksum for each step
    my_y = slice(rank * sy, (rank + 1) * sy)
    results = []
    for t in range(1, steps + 1):
        evolved = xlocal * _evolve_factor(shape, t)[:, my_y, :]
        yield from compute(comm, 2.0 * nx * sy * nz)
        # checksum: sum my share of the 16 sample modes, then allreduce
        local_sum = 0j
        for q in range(1, 17):
            j = (3 * q) % ny
            if rank * sy <= j < (rank + 1) * sy:
                local_sum += evolved[q % nx, j - rank * sy, (5 * q) % nz]
        buf = np.zeros(2)
        yield from comm.allreduce(
            np.array([local_sum.real, local_sum.imag]), buf, op="sum"
        )
        results.append(complex(buf[0], buf[1]) / 16.0)

    ref = serial_reference(shape, steps)
    verified = all(abs(a - b) < 1e-8 * max(1.0, abs(b)) for a, b in zip(results, ref))
    return NasOutcome("ft", bool(verified), abs(results[-1]), detail=results)
