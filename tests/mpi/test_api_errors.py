"""API misuse and diagnostics."""

import numpy as np
import pytest

from repro import SPCluster
from repro.cluster.cluster import DeadlockError
from repro.mpi import MpiError


def run(n, program):
    return SPCluster(n).run(program)


def test_negative_tag_rejected():
    def program(comm, rank, size):
        try:
            yield from comm.send(b"x", dest=1 - rank, tag=-5)
        except MpiError:
            return "caught"

    assert run(2, program).values[0] == "caught"


def test_dest_rank_out_of_range():
    def program(comm, rank, size):
        try:
            yield from comm.send(b"x", dest=7)
        except MpiError:
            return "caught"

    assert run(2, program).values == ["caught", "caught"]


def test_source_rank_out_of_range():
    def program(comm, rank, size):
        buf = bytearray(1)
        try:
            yield from comm.recv(buf, source=9)
        except MpiError:
            return "caught"

    assert run(2, program).values[0] == "caught"


def test_waitany_empty_rejected():
    def program(comm, rank, size):
        yield comm.env.timeout(0)
        try:
            yield from comm.waitany([])
        except MpiError:
            return "caught"

    assert run(1, program).values[0] == "caught"


def test_split_without_collective_guides_user():
    def program(comm, rank, size):
        yield comm.env.timeout(0)
        try:
            comm.split(0)
        except MpiError as e:
            return "split_collective" in str(e)

    assert run(2, program).values[0] is True


def test_deadlock_error_names_stuck_ranks():
    def program(comm, rank, size):
        buf = bytearray(4)
        if rank == 0:
            yield from comm.send(b"ok!!", dest=1)
            return None
        yield from comm.recv(buf, source=0)
        # rank 1 now waits for a message nobody sends
        yield from comm.recv(buf, source=0, tag=42)

    with pytest.raises(DeadlockError, match=r"rank\(s\) \[1\]"):
        run(2, program)


STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("nbytes", [64, 64 * 1024])  # eager, rendezvous
def test_deadlock_error_names_stuck_matching_state(stack, nbytes):
    """A tag mismatch strands the receive and the message in opposite
    queues of rank 1's matcher; the report shows both (and, for a
    rendezvous send, rank 0 blocked on the ack that never comes)."""
    ctx = {}

    def program(comm, rank, size):
        ctx["world"] = comm.context
        if rank == 0:
            yield from comm.send(bytes(nbytes), dest=1, tag=7)
        else:
            yield from comm.recv(bytearray(nbytes), source=0, tag=8)

    with pytest.raises(DeadlockError) as info:
        SPCluster(2, stack=stack).run(program)
    err = info.value
    world = ctx["world"]
    stuck = [1] if nbytes == 64 else [0, 1]
    assert sorted(err.blocked) == stuck
    view = err.blocked[1]
    assert view.posted == ((world, 0, 8),)
    assert view.early == ((world, 0, 7),)
    assert view.bound == ()
    assert view.stranded() == []
    text = str(err)
    assert f"rank 1: posted [Envelope(ctx={world}, src=0, tag=8)]" in text
    assert f"early [Envelope(ctx={world}, src=0, tag=7)]" in text
    if nbytes != 64:
        assert err.blocked[0].early == () and "rank 0: posted []" in text


def test_wtime_advances():
    def program(comm, rank, size):
        t0 = comm.wtime()
        yield comm.env.timeout(1_000_000.0)  # 1 simulated second
        return comm.wtime() - t0

    res = run(1, program)
    assert res.values[0] == pytest.approx(1.0)


def test_buffer_attach_twice_rejected():
    def program(comm, rank, size):
        yield comm.env.timeout(0)
        comm.buffer_attach(1024)
        try:
            comm.buffer_attach(1024)
        except Exception as e:
            return type(e).__name__

    assert run(1, program).values[0] == "MpiFatal"


def test_bsend_without_attach_rejected():
    def program(comm, rank, size):
        try:
            yield from comm.bsend(b"x" * 100, dest=1 - rank)
        except Exception as e:
            return "exceeds attached" in str(e)

    assert run(2, program).values[0] is True
