"""One-sided operations on a remote target, checked against a serial replay.

Rank 0 targets rank 1, so every op takes the engine's wire path
(``LapiRmaEngine.gacc`` and its header handlers, or the native window
server) rather than the local branch that ``tests/mpi/test_rma.py``'s
self-targeted ``get_accumulate`` takes.
"""

import numpy as np
import pytest

from repro import SPCluster
from tests.mpi.test_idle_progress import _program

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
MODES = ("polling", "interrupt")

WORDS = 16
#: (epoch, op, first word, operand values, dtype) of each get_accumulate;
#: the ops of one epoch touch disjoint words, later epochs overlap them
GACC_OPS = (
    (0, "sum", 0, [5, 6, 7, 8], "<i8"),
    (0, "max", 4, [2, 50, -3, 9], "<i8"),
    (0, "replace", 8, [11, 12], "<i8"),
    (1, "prod", 0, [3, 3, 3, 3, 3, 3], "<i8"),
    (1, "bxor", 8, [0xFF, 0x0F], "<i8"),
    (1, "no_op", 12, [99, 99], "<i8"),
    (2, "min", 2, [4, 100, 1, -7], "<i8"),
    (2, "band", 10, [6, 3, 12], "<i8"),
    (3, "sum", 0, [1] * WORDS, "<i8"),
)
UFUNCS = {"sum": np.add, "prod": np.multiply, "min": np.minimum,
          "max": np.maximum, "band": np.bitwise_and, "bxor": np.bitwise_xor}


def initial():
    return np.arange(1, WORDS + 1, dtype=np.int64) * 10


def serial_replay():
    """The results and final window of the same ops applied in order."""
    mem = initial()
    results = []
    for _epoch, op, first, vals, dtype in GACC_OPS:
        operand = np.asarray(vals, dtype=dtype)
        span = slice(first, first + len(vals))
        results.append(mem[span].tolist())
        if op == "replace":
            mem[span] = operand
        elif op != "no_op":
            mem[span] = UFUNCS[op](mem[span], operand)
    return results, mem.tolist()


def program(comm, rank, size, sync):
    win = yield from comm.win_create(8 * WORDS)
    win.mem[:] = initial().tobytes()
    results = []
    epochs = sorted({e for e, *_ in GACC_OPS})
    if sync == "fence":
        yield from win.fence()
    for epoch in epochs:
        if rank == 0 and sync == "lock":
            yield from win.lock(1, exclusive=epoch % 2 == 0)
        if rank == 0:
            for e, op, first, vals, dtype in GACC_OPS:
                if e != epoch:
                    continue
                out = np.zeros(len(vals), dtype=np.int64)
                yield from win.get_accumulate(
                    np.asarray(vals, dtype=dtype), out, 1, 8 * first,
                    op=op, dtype=dtype)
                results.append(out)
        if sync == "fence":
            yield from win.fence()
        elif rank == 0:
            yield from win.unlock(1)
    yield from comm.barrier()
    final = np.frombuffer(bytes(win.mem), dtype=np.int64).tolist()
    yield from win.free()
    return [r.tolist() for r in results], final


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("sync", ["fence", "lock"])
@pytest.mark.parametrize("stack", MPI_STACKS)
def test_remote_get_accumulate_matches_a_serial_replay(stack, sync, mode):
    res = SPCluster(2, stack=stack, interrupt_mode=mode == "interrupt").run(
        program, sync)
    want_results, want_final = serial_replay()
    (results, origin_final), (none, target_final) = res.values
    assert results == want_results
    assert target_final == want_final
    assert none == [] and origin_final == initial().tolist()
    counters = res.metrics["aggregate"]["counters"]
    assert counters["rma.gacc"] == len(GACC_OPS)


@pytest.mark.parametrize("stack", [
    "native",
    pytest.param("lapi-base", marks=pytest.mark.xfail(strict=True, reason=(
        "LAPI's marker fence waits only for the ops aimed at this rank: a "
        "rank can leave it and get from a window whose own fence still "
        "waits for a third rank's put"))),
    "lapi-counters",
    "lapi-enhanced",
])
def test_a_get_after_a_fence_sees_a_third_ranks_put(stack):
    """Point-to-point traffic, then each rank puts to its right, fences
    and gets its left's window (the idle-progress test's program)."""
    nodes = 4
    res = SPCluster(nodes, stack=stack, interrupt_mode=True).run(_program)
    # rank r reads window r-1, which rank r-2 wrote in the closed epoch
    assert [v[4] for v in res.values] == [bytes([0xA0 + (r - 2) % nodes]) * 8
                                          for r in range(nodes)]
