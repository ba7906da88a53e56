"""The Counters variant's completion-counter pools are built lazily.

Each peer's block of counter ids is reserved when the backend is built,
so ids and the sender-side id lists match eager allocation, but a slot's
counter and ``_Slot`` only exist once a message binds or addresses it.
"""

import numpy as np

from repro import MachineParams, SPCluster

SLOTS = MachineParams().counter_pool_slots


def _pool_slots(backend, src):
    return backend._pools[src]._slots


def test_ids_match_eager_allocation():
    cluster = SPCluster(4, stack="lapi-counters")
    for me, backend in enumerate(cluster.backends):
        peers = [p for p in range(4) if p != me]
        # eager allocation created SLOTS counters per peer, in peer order,
        # from the LAPI's first counter id on
        for j, src in enumerate(peers):
            expected = list(range(1 + j * SLOTS, 1 + (j + 1) * SLOTS))
            assert list(backend._pools[src].cids) == expected
            sender = cluster.backends[src]
            assert sender._peer_slot_ids[me] == expected
        # ids handed out after the pools continue where eager ones did
        cid, _cntr = cluster.lapis[me].create_counter("after")
        assert cid == 1 + len(peers) * SLOTS


def test_fresh_cluster_builds_no_pool_counters():
    cluster = SPCluster(4, stack="lapi-counters")
    for me, backend in enumerate(cluster.backends):
        assert cluster.lapis[me]._counters == {}
        for src in backend._pools:
            assert all(s is None for s in _pool_slots(backend, src))


def test_addressing_an_id_builds_its_slot():
    cluster = SPCluster(2, stack="lapi-counters")
    backend, lapi = cluster.backends[1], cluster.lapis[1]
    pool = backend._pools[0]
    cntr = lapi.counter_by_id(pool.cids[7])
    slot = _pool_slots(backend, 0)[7]
    assert slot is not None and slot.cntr is cntr and slot.cid == pool.cids[7]
    assert cntr.name == "t1.pool[0][7]"
    assert pool[7] is slot
    assert sum(s is not None for s in _pool_slots(backend, 0)) == 1


def test_eager_stream_wraps_the_pool():
    n = SLOTS + 44
    cluster = SPCluster(2, stack="lapi-counters")

    def program(comm, rank, size):
        if rank == 0:
            for i in range(n):
                yield from comm.send(np.full(16, i % 251, dtype=np.uint8), dest=1)
            return None
        got = []
        buf = np.zeros(16, dtype=np.uint8)
        for _ in range(n):
            yield from comm.recv(buf, source=0)
            got.append(int(buf[0]))
        return got

    res = cluster.run(program)
    assert res.values[1] == [i % 251 for i in range(n)]
    slots = _pool_slots(cluster.backends[1], 0)
    assert all(s is not None for s in slots)
    for s in slots:
        assert s.cntr.value == 0 and not s.fifo
    # the sender never receives, so its pool stays unbuilt
    assert all(s is None for s in _pool_slots(cluster.backends[0], 1))


def test_interleaved_rendezvous_binds_the_right_slot_on_four_nodes():
    sizes = [64, 8192, 100, 20000, 8, 4097, 512]  # eager and rendezvous
    cluster = SPCluster(4, stack="lapi-counters")

    def program(comm, rank, size):
        right, left = (rank + 1) % size, (rank - 1) % size
        reqs, bufs = [], []
        for k, n in enumerate(sizes):
            buf = bytearray(n)
            bufs.append(buf)
            reqs.append((yield from comm.irecv(buf, source=left, tag=k)))
        for k, n in enumerate(sizes):
            data = bytes([(rank * 31 + k) % 256]) * n
            reqs.append((yield from comm.isend(data, dest=right, tag=k)))
        yield from comm.waitall(reqs)
        return all(buf == bytes([(left * 31 + k) % 256]) * len(buf)
                   for k, buf in enumerate(bufs))

    res = cluster.run(program)
    assert res.values == [True] * 4
    for me, backend in enumerate(cluster.backends):
        left = (me - 1) % 4
        for src in backend._pools:
            built = {k for k, s in enumerate(_pool_slots(backend, src))
                     if s is not None}
            # message k from ``left`` carries mseq k: exactly its slot
            # was bound, eager and rendezvous data alike
            assert built == (set(range(len(sizes))) if src == left else set())
