"""Shared NAS-kernel infrastructure: compute-cost model, registry,
shared read-only problem data and serial references."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Generator

import numpy as np

__all__ = [
    "FLOP_US", "KERNELS", "SHARED_CACHE_SIZE", "NasOutcome", "compute",
    "register", "run_kernel", "shared",
]

#: simulated cost of one floating-point operation on the 332 MHz node
#: (~125 Mflop/s sustained — P2SC/604e class for stride-1 kernels)
FLOP_US = 0.008


def compute(comm, flops: float) -> Generator:
    """Charge simulated compute time for ``flops`` floating-point ops.

    The actual (tiny) numpy arithmetic runs for real so results can be
    verified; this charges the wall-clock the full-size computation
    would have cost on the modelled node.
    """
    yield from comm.backend.cpu.execute("user", flops * FLOP_US)


#: parameter sets each :func:`shared` builder keeps, least recently used
#: evicted first; IS's key builder takes one entry per rank, so this
#: holds classes S and W of an 8-rank run
SHARED_CACHE_SIZE = 16


def _freeze(value):
    """Make a builder's result safe to share: arrays read-only, lists
    (and the items of tuples) frozen into tuples."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def shared(builder: Callable) -> Callable:
    """Memoise a pure builder of problem data or of a serial reference.

    Each parameter set is built once; every rank and every later run
    gets the same object, frozen by :func:`_freeze`.  A kernel that
    writes into shared data therefore raises ``ValueError`` at once
    instead of corrupting the next run: take a ``.copy()`` of what you
    mean to update.  The cache is a bounded LRU keyed on the call's
    arguments (``SHARED_CACHE_SIZE`` entries per builder);
    ``__wrapped__`` is the uncached builder.
    """

    @functools.lru_cache(maxsize=SHARED_CACHE_SIZE)
    def build(*args, **kwargs):
        return _freeze(builder(*args, **kwargs))

    functools.update_wrapper(build, builder)
    return build


@dataclass
class NasOutcome:
    """What a kernel returns from each rank."""

    name: str
    verified: bool
    checksum: float
    detail: Any = None


KERNELS: dict[str, Callable] = {}

#: problem classes in the NPB spirit — S is the default (fast) size used
#: by the benchmarks; W scales each kernel up several-fold
KERNEL_CLASSES: dict[str, dict[str, dict]] = {
    "ep": {"S": dict(n_pairs=4096), "W": dict(n_pairs=16384)},
    "is": {"S": dict(n_local=8192), "W": dict(n_local=32768)},
    "cg": {"S": dict(n=256, iters=25), "W": dict(n=512, iters=30)},
    "mg": {"S": dict(n=512, cycles=3), "W": dict(n=2048, cycles=4)},
    "ft": {"S": dict(shape=(16, 16, 16), steps=3),
           "W": dict(shape=(32, 32, 16), steps=4)},
    "lu": {"S": dict(n=64, sweeps=6), "W": dict(n=128, sweeps=8)},
    "bt": {"S": dict(n=64, iters=4), "W": dict(n=128, iters=6)},
    "sp": {"S": dict(n=64, iters=3), "W": dict(n=128, iters=4)},
}


def register(name: str):
    def deco(fn):
        KERNELS[name] = fn
        return fn

    return deco


def run_kernel(name: str, cluster, cls: str = "S", **overrides):
    """Run a registered kernel on a cluster; returns the RunResult.

    ``cls`` selects a problem class ("S" or "W"); keyword overrides take
    precedence over the class parameters.
    """
    try:
        fn = KERNELS[name]
    except KeyError:
        raise KeyError(f"unknown NAS kernel {name!r}; have {sorted(KERNELS)}") from None
    classes = KERNEL_CLASSES.get(name, {})
    if cls not in classes and cls != "S":
        raise KeyError(f"kernel {name!r} has no class {cls!r}")
    kwargs = dict(classes.get(cls, {}))
    kwargs.update(overrides)
    return cluster.run(fn, **kwargs)


# importing the kernel modules populates the registry
from repro.nas import bt, cg, ep, ft, is_, lu, mg, sp  # noqa: E402,F401
