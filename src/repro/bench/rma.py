"""RMA vs two-sided: the layering contrast the paper never measured.

The paper built two-sided MPI on one-sided LAPI; MPI-3 RMA maps the
same one-sided primitives *directly* (Gerstenberger et al.), so on the
LAPI stacks a fence-synchronized Put dodges tag matching, request
allocation and the posted/unexpected queues entirely — while the native
(Pipes) stack must *emulate* RMA over send/recv through a target-side
server process, paying the request/ack round trip the thin mapping
avoids.  The headline numbers:

* ``rma_pingpong_us``  — fence-synchronized put ping-pong latency
* ``rma_lock_us``      — passive-target lock/put/unlock round
* ``rma_bw_MBps``      — back-to-back put streaming bandwidth
* two-sided reference columns from :func:`repro.bench.harness.pingpong_us`
"""

from __future__ import annotations

from typing import Optional

from repro.bench.harness import pingpong_us
from repro.bench.sweep import reps_for
from repro.cluster import SPCluster
from repro.machine import MachineParams

__all__ = ["LAT_STACKS", "check", "rma_bw_MBps", "rma_lock_us",
           "rma_pingpong_us"]

LAT_STACKS = ("lapi-enhanced", "lapi-counters", "lapi-base", "native")


def rma_pingpong_us(stack: str, msg_size: int, reps: int = 12,
                    warmup: int = 2, params: Optional[MachineParams] = None,
                    seed: int = 0, interrupt_mode: bool = False) -> float:
    """One-way latency (us) of a fence-synchronized put ping-pong."""
    cluster = SPCluster(2, stack=stack, params=params, seed=seed,
                        interrupt_mode=interrupt_mode)
    payload = bytes(max(msg_size, 1))

    def program(comm, rank, size):
        win = yield from comm.win_create(max(msg_size, 1))
        yield from win.fence()
        t0 = None
        for i in range(warmup + reps):
            if i == warmup:
                t0 = comm.env.now
            if rank == 0:
                yield from win.put(payload, 1, 0)
            yield from win.fence()
            if rank == 1:
                yield from win.put(payload, 0, 0)
            yield from win.fence()
        elapsed = comm.env.now - t0
        yield from win.free()
        return elapsed / reps / 2.0 if rank == 0 else None

    return cluster.run(program).values[0]


def rma_lock_us(stack: str, msg_size: int, reps: int = 12, warmup: int = 2,
                params: Optional[MachineParams] = None, seed: int = 0,
                interrupt_mode: bool = False) -> float:
    """Passive-target round: lock(excl) + put + unlock, origin view."""
    cluster = SPCluster(2, stack=stack, params=params, seed=seed,
                        interrupt_mode=interrupt_mode)
    payload = bytes(max(msg_size, 1))

    def program(comm, rank, size):
        win = yield from comm.win_create(max(msg_size, 1))
        yield from comm.barrier()
        t0 = None
        if rank == 0:
            for i in range(warmup + reps):
                if i == warmup:
                    t0 = comm.env.now
                yield from win.lock(1, exclusive=True)
                yield from win.put(payload, 1, 0)
                yield from win.unlock(1)
            elapsed = comm.env.now - t0
            # rank 1 only reaches the closing barrier once its lock
            # traffic has been served, so no explicit signal is needed
            yield from comm.barrier()
            yield from win.free()
            return elapsed / reps
        yield from comm.barrier()
        yield from win.free()
        return None

    return cluster.run(program).values[0]


def rma_bw_MBps(stack: str, msg_size: int, depth: int = 8, reps: int = 4,
                params: Optional[MachineParams] = None, seed: int = 0) -> float:
    """Streaming bandwidth: ``depth`` back-to-back puts per fence."""
    cluster = SPCluster(2, stack=stack, params=params, seed=seed)
    payload = bytes(msg_size)

    def program(comm, rank, size):
        win = yield from comm.win_create(msg_size)
        yield from win.fence()
        t0 = comm.env.now
        for _ in range(reps):
            if rank == 0:
                for _ in range(depth):
                    yield from win.put(payload, 1, 0)
            yield from win.fence()
        elapsed = comm.env.now - t0
        yield from win.free()
        return (reps * depth * msg_size) / elapsed if rank == 0 else None

    return cluster.run(program).values[0]


# ---------------------------------------------------------------- sweep
def _lat_row(size: int, params: Optional[MachineParams]) -> dict:
    reps = reps_for(size)
    row = {"size": size}
    for stack in LAT_STACKS:
        row[f"rma:{stack}"] = rma_pingpong_us(stack, size, reps=reps,
                                              params=params)
        row[f"2s:{stack}"] = pingpong_us(stack, size, reps=reps,
                                         params=params)
    return row


def _lock_row(size: int, params: Optional[MachineParams]) -> dict:
    row = {"size": size}
    for stack in ("lapi-enhanced", "native"):
        row[f"lock:{stack}"] = rma_lock_us(stack, size, reps=8, params=params)
    return row


def _bw_row(size: int, params: Optional[MachineParams]) -> dict:
    row = {"size": size}
    for stack in ("lapi-enhanced", "native"):
        row[f"bw:{stack}"] = rma_bw_MBps(stack, size, params=params)
    return row


def check(data: dict[str, list[dict]]) -> list[str]:
    """Shape violations (empty == the layering story reproduces)."""
    problems = []
    for row in data["latency"]:
        s = row["size"]
        if s <= 64 and not row["rma:lapi-enhanced"] < row["2s:lapi-enhanced"]:
            problems.append(
                f"size {s}: fence put ping-pong not below two-sided "
                f"({row['rma:lapi-enhanced']:.2f} >= "
                f"{row['2s:lapi-enhanced']:.2f} us)")
        if not row["rma:native"] > row["rma:lapi-enhanced"]:
            problems.append(
                f"size {s}: native RMA emulation not above the thin "
                f"LAPI mapping")
    return problems
