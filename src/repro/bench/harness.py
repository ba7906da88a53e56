"""Measurement drivers used by every figure reproduction.

These mirror the paper's §5.1/§6.1 methodology:

* **latency** — messages bounced between two nodes; the reported number
  is one-way time (half the averaged round trip).  MPI_Send/MPI_Recv.
* **interrupt-mode latency** — the receiver posts MPI_Irecv and then
  *checks the content of the receive buffer* in a loop (no MPI calls),
  so all progress is interrupt-driven; then replies.
* **bandwidth** — back-to-back MPI_Isend/MPI_Irecv streams; the timer
  stops when the acknowledgement of the last message returns.
* **raw LAPI** — LAPI_Put + LAPI_Waitcntr ping-pong (Fig 10's baseline).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster import SPCluster
from repro.machine import MachineParams

__all__ = [
    "bandwidth_mbps",
    "interrupt_pingpong_us",
    "pingpong_program",
    "pingpong_result",
    "pingpong_us",
    "raw_lapi_pingpong_us",
]


def _params(params: Optional[MachineParams]) -> MachineParams:
    return params if params is not None else MachineParams()


def pingpong_program(msg_size: int, reps: int, warmup: int = 0,
                     interrupt: bool = False):
    """The latency ping-pong as a rank program for a 2-node cluster.

    ``warmup`` untimed round trips precede ``reps`` timed ones; rank 0
    returns the one-way latency in us, rank 1 ``None``.  With
    ``interrupt`` the responder pre-posts all its receives and
    busy-checks the receive buffers' contents without entering MPI, so
    the incoming data can only move via the interrupt path (paper Fig 13
    methodology); the cluster must be in interrupt mode.
    """
    size_eff = max(msg_size, 1)
    total = warmup + reps

    if interrupt:
        def program(comm, rank, size):
            if rank == 1:
                bufs = [np.zeros(size_eff, dtype=np.uint8) for _ in range(total)]
                reqs = []
                for i in range(total):
                    r = yield from comm.irecv(bufs[i], source=0)
                    reqs.append(r)
                yield from comm.barrier()
                for i in range(total):
                    marker = (i % 255) + 1
                    # spin on memory contents — NOT on MPI calls
                    while bufs[i][-1] != marker:
                        yield from comm.backend.cpu.execute(
                            "user", comm.backend.params.poll_check_us
                        )
                    yield from comm.send(bytes([marker]) * size_eff, dest=0)
                return None
            buf = bytearray(size_eff)
            yield from comm.barrier()
            t0 = None
            for i in range(total):
                if i == warmup:
                    t0 = comm.env.now
                marker = (i % 255) + 1
                yield from comm.send(bytes([marker]) * size_eff, dest=1)
                yield from comm.recv(buf, source=1)
            return (comm.env.now - t0) / reps / 2.0

        return program

    payload = bytes(msg_size)

    def program(comm, rank, size):
        buf = bytearray(size_eff)
        yield from comm.barrier()
        t0 = None
        for i in range(total):
            if i == warmup:
                t0 = comm.env.now
            if rank == 0:
                yield from comm.send(payload, dest=1)
                yield from comm.recv(buf, source=1)
            else:
                yield from comm.recv(buf, source=0)
                yield from comm.send(payload, dest=0)
        return (comm.env.now - t0) / reps / 2.0 if rank == 0 else None

    return program


def pingpong_result(
    stack: str,
    msg_size: int,
    reps: int = 12,
    warmup: int = 2,
    params: Optional[MachineParams] = None,
    seed: int = 0,
):
    """Full :class:`~repro.cluster.RunResult` of the latency ping-pong.

    Rank 0's value is the one-way latency in us; ``result.metrics``
    carries the cluster's full metrics snapshot.
    """
    cluster = SPCluster(2, stack=stack, params=_params(params), seed=seed)
    return cluster.run(pingpong_program(msg_size, reps, warmup))


def pingpong_us(
    stack: str,
    msg_size: int,
    reps: int = 12,
    warmup: int = 2,
    params: Optional[MachineParams] = None,
    seed: int = 0,
) -> float:
    """One-way latency (us) via a blocking-send/recv ping-pong."""
    return pingpong_result(stack, msg_size, reps=reps, warmup=warmup,
                           params=params, seed=seed).values[0]


def interrupt_pingpong_us(
    stack: str,
    msg_size: int,
    reps: int = 8,
    warmup: int = 1,
    params: Optional[MachineParams] = None,
    seed: int = 0,
) -> float:
    """One-way latency (us) in interrupt mode (see :func:`pingpong_program`)."""
    from repro.cluster import preset

    cluster = preset("interrupt_mode", stack=stack, params=_params(params),
                     seed=seed).build()
    return cluster.run(
        pingpong_program(msg_size, reps, warmup, interrupt=True)).values[0]


def bandwidth_mbps(
    stack: str,
    msg_size: int,
    count: int = 24,
    params: Optional[MachineParams] = None,
    seed: int = 0,
) -> float:
    """Streaming bandwidth (MB/s, 1 MB = 1e6 B) via Isend/Irecv."""
    if msg_size < 1:
        raise ValueError("bandwidth needs a positive message size")
    cluster = SPCluster(2, stack=stack, params=_params(params), seed=seed)
    payload = bytes(msg_size)

    def program(comm, rank, size):
        if rank == 1:
            bufs = [np.zeros(msg_size, dtype=np.uint8) for _ in range(count)]
            reqs = []
            for i in range(count):
                r = yield from comm.irecv(bufs[i], source=0)
                reqs.append(r)
            yield from comm.barrier()
            yield from comm.waitall(reqs)
            yield from comm.send(b"k", dest=0)  # the final acknowledgement
            return None
        yield from comm.barrier()
        t0 = comm.env.now
        reqs = []
        for _ in range(count):
            r = yield from comm.isend(payload, dest=1)
            reqs.append(r)
        yield from comm.waitall(reqs)
        ack = bytearray(1)
        yield from comm.recv(ack, source=1)
        elapsed = comm.env.now - t0
        return (count * msg_size) / elapsed  # bytes/us == MB/s

    return cluster.run(program).values[0]


def raw_lapi_pingpong_us(
    msg_size: int,
    reps: int = 12,
    warmup: int = 2,
    params: Optional[MachineParams] = None,
    seed: int = 0,
) -> float:
    """One-way time (us) of the bare-LAPI ping-pong: Put + Waitcntr."""
    size_eff = max(msg_size, 1)
    cluster = SPCluster(2, stack="raw-lapi", params=_params(params), seed=seed)
    data = bytes(size_eff)

    def program(lapi, rank, size):
        buf = bytearray(size_eff)
        lapi.address_init("pp", buf)
        my_id, my_cntr = lapi.create_counter("pp")
        yield from lapi.gfence("user")
        peer = 1 - rank
        # counter ids are allocated identically on both tasks
        peer_id = my_id
        total = warmup + reps
        t0 = None
        for i in range(total):
            if i == warmup:
                t0 = lapi.env.now
            if rank == 0:
                yield from lapi.put("user", peer, "pp", 0, data, tgt_cntr_id=peer_id)
                yield from lapi.waitcntr("user", my_cntr, 1)
            else:
                yield from lapi.waitcntr("user", my_cntr, 1)
                yield from lapi.put("user", peer, "pp", 0, data, tgt_cntr_id=peer_id)
        return (lapi.env.now - t0) / reps / 2.0 if rank == 0 else None

    return cluster.run(program).values[0]
