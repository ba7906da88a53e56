"""IS — Integer Sort (NPB kernel).

Bucket sort of uniformly distributed integer keys: a histogram
allreduce to agree on bucket ownership, then a large alltoallv moving
every key to its owner — IS is the paper's communication-volume-bound
benchmark, where MPI-LAPI's copy avoidance pays directly.
"""

from __future__ import annotations

import numpy as np

from repro.nas.common import NasOutcome, compute, register, shared

__all__ = ["is_sort", "serial_reference"]

_MAX_KEY = 1 << 11


@shared
def _keys_for(rank: int, n_local: int) -> np.ndarray:
    rng = np.random.default_rng(900 + rank)
    return rng.integers(0, _MAX_KEY, n_local, dtype=np.int32)


@shared
def serial_reference(size: int, n_local: int) -> np.ndarray:
    """All keys, globally sorted."""
    allk = np.concatenate([_keys_for(r, n_local) for r in range(size)])
    return np.sort(allk)


@register("is")
def is_sort(comm, rank, size, n_local: int = 8192):
    """Sort ``size * n_local`` keys; returns per-rank verification."""
    keys = _keys_for(rank, n_local)

    # 1. global histogram so every rank knows the key distribution
    hist = np.bincount(keys, minlength=_MAX_KEY).astype(np.int64)
    ghist = np.zeros_like(hist)
    yield from comm.allreduce(hist, ghist, op="sum")
    yield from compute(comm, 4.0 * n_local)

    # 2. split the key range so each rank owns ~equal keys
    cum = np.cumsum(ghist)
    total = int(cum[-1])
    splitters = np.searchsorted(cum, [(r + 1) * total // size for r in range(size)])
    splitters[-1] = _MAX_KEY - 1

    # 3. route keys to their owners with one big alltoallv
    owner = np.searchsorted(splitters, keys)
    order = np.argsort(owner, kind="stable")
    keys_sorted_by_owner = keys[order]
    counts = np.bincount(owner, minlength=size)
    sendcounts = [int(c) * 4 for c in counts]  # int32 bytes
    recvcounts_arr = np.zeros(size, dtype=np.int64)
    yield from comm.alltoall(
        np.array([[c] for c in sendcounts], dtype=np.int64),
        recvcounts_arr.reshape(size, 1),
    )
    recvcounts = [int(c) for c in recvcounts_arr]
    recvbuf = bytearray(sum(recvcounts))
    yield from comm.alltoallv(
        keys_sorted_by_owner.tobytes(), sendcounts, recvbuf, recvcounts
    )
    mine = np.frombuffer(bytes(recvbuf), dtype=np.int32)

    # 4. local counting sort
    mine = np.sort(mine, kind="stable")
    yield from compute(comm, 10.0 * max(len(mine), 1))

    # 5. verification: local order + boundary order + global checksum
    local_ok = bool(np.all(np.diff(mine) >= 0)) if len(mine) else True
    lo = int(mine[0]) if len(mine) else _MAX_KEY
    hi = int(mine[-1]) if len(mine) else -1
    edges = np.zeros((size, 2), dtype=np.int64)
    yield from comm.allgather(np.array([lo, hi], dtype=np.int64), edges)
    boundary_ok = all(
        edges[r][1] <= edges[r + 1][0] or edges[r + 1][0] == _MAX_KEY
        for r in range(size - 1)
    )
    csum = np.zeros(2, dtype=np.int64)
    yield from comm.allreduce(
        np.array([mine.sum(dtype=np.int64), len(mine)], dtype=np.int64), csum, op="sum"
    )
    ref = serial_reference(size, n_local)
    verified = (
        local_ok
        and boundary_ok
        and int(csum[0]) == int(ref.sum(dtype=np.int64))
        and int(csum[1]) == len(ref)
    )
    return NasOutcome("is", bool(verified), float(csum[0]))
