"""Nonblocking send modes and buffer detach on every MPI stack.

``issend`` completes only once its receive is matched, ``irsend`` meets
a receive posted beforehand, ``ibsend`` completes locally against the
attached buffer, and ``buffer_detach`` returns only after every
buffered send's receiver has freed its space (the ``bfree``
notification: a Pipes control frame on native, the ``mpi_bfree``
header handler on the LAPI stacks).
"""

import pytest

from repro import SPCluster

MPI_STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
LATE_US = 30000.0


@pytest.mark.parametrize("stack", MPI_STACKS)
@pytest.mark.parametrize("n", [64, 16 * 1024])  # eager and rendezvous sizes
def test_issend_completes_only_after_its_receive_is_matched(stack, n):
    payload = bytes(i % 251 for i in range(n))

    def program(comm, rank, size):
        if rank == 0:
            req = yield from comm.issend(payload, dest=1, tag=3)
            early = yield from comm.test(req)
            yield from comm.wait(req)
            return early, comm.env.now
        yield comm.env.timeout(LATE_US)
        posted = comm.env.now
        buf = bytearray(n)
        yield from comm.recv(buf, source=0, tag=3)
        return posted, bytes(buf) == payload

    (early, done), (posted, ok) = SPCluster(2, stack=stack).run(program).values
    assert not early
    assert done >= posted
    assert ok


@pytest.mark.parametrize("stack", MPI_STACKS)
@pytest.mark.parametrize("n", [64, 16 * 1024])
def test_irsend_meets_a_receive_posted_beforehand(stack, n):
    payload = bytes(i % 251 for i in range(n))

    def program(comm, rank, size):
        if rank == 1:
            buf = bytearray(n)
            req = yield from comm.irecv(buf, source=0, tag=9)
            yield from comm.send(b"ready", dest=0, tag=1)
            status = yield from comm.wait(req)
            return status.count, bytes(buf) == payload
        yield from comm.recv(bytearray(5), source=1, tag=1)
        req = yield from comm.irsend(payload, dest=1, tag=9)
        yield from comm.wait(req)
        return req.done

    done, (count, ok) = SPCluster(2, stack=stack).run(program).values
    assert done and count == n and ok


@pytest.mark.parametrize("stack", MPI_STACKS)
@pytest.mark.parametrize("interrupt", [False, True])
def test_ibsend_returns_early_and_detach_waits_for_every_bfree(stack, interrupt):
    sizes = (100, 2000, 9000)  # eager and rendezvous messages
    attached = 2 * sum(sizes)

    def program(comm, rank, size):
        if rank == 0:
            comm.buffer_attach(attached)
            reqs = []
            for tag, n in enumerate(sizes):
                reqs.append((yield from comm.ibsend(bytes([tag + 1]) * n,
                                                    dest=1, tag=tag)))
            yield from comm.waitall(reqs)
            sent = comm.env.now
            freed = yield from comm.buffer_detach()
            detached = comm.env.now
            comm.buffer_attach(64)  # a second attach is allowed after detach
            return sent, freed, detached
        yield comm.env.timeout(LATE_US)
        posted = comm.env.now
        ok = True
        for tag, n in enumerate(sizes):
            buf = bytearray(n)
            yield from comm.recv(buf, source=0, tag=tag)
            ok &= bytes(buf) == bytes([tag + 1]) * n
        return posted, ok

    res = SPCluster(2, stack=stack, interrupt_mode=interrupt).run(program)
    (sent, freed, detached), (posted, ok) = res.values
    assert ok
    assert sent < posted, "ibsend completes locally while the receiver is late"
    assert freed == attached
    assert detached > posted, "detach waits for the receiver's bfree"


@pytest.mark.parametrize("stack", MPI_STACKS)
def test_detach_with_nothing_outstanding_returns_at_once(stack):
    def program(comm, rank, size):
        if rank == 0:
            comm.buffer_attach(512)
            t0 = comm.env.now
            freed = yield from comm.buffer_detach()
            return freed, comm.env.now - t0
        return None
        yield

    freed, waited = SPCluster(2, stack=stack).run(program).values[0]
    assert (freed, waited) == (512, 0.0)


def test_raw_lapi_null_handler_completes_the_target_counter():
    cluster = SPCluster(2, stack="raw-lapi")
    cid, cntr = cluster.lapis[1].create_counter()

    def program(lapi, rank, size):
        if rank == 0:
            yield from lapi.amsend("user", 1, "_lapi_null", {}, b"abc",
                                   tgt_cntr_id=cid)
        else:
            yield from lapi.waitcntr("user", cntr, 1)
        return lapi.env.now

    sent, landed = cluster.run(program).values
    assert landed > 0.0
    assert cluster.metrics_snapshot()["nodes"][1]["counters"]["lapi.hdr._lapi_null"] == 1
