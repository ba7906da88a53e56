"""Regression: a receive posted while its eager message lands must match.

``irecv`` searches the early-arrival queue, then yields to charge the
match cost, then posts.  An eager header arriving during that yield went
to the early queue, and the receive was posted behind it: the pair
stranded and the run ended in a deadlock.  The LAPI backend now re-checks
the early queue, without yielding, right before the post, as the native
backend does.

The delays below are every 0.02 us step in 0-80 us at which the
unfixed LAPI stacks deadlocked (2 nodes, interrupt mode, default
parameters); the window moves with the core count.  Native never
deadlocked and is pinned alongside.
"""

import pytest

from repro import MachineParams, SPCluster

#: deadlocking receive-post delays of the unfixed LAPI stacks, per core count
RACE_WINDOWS = {
    1: [round(31.28 + 0.02 * i, 2) for i in range(45)],  # 31.28 .. 32.16 us
    2: [round(31.08 + 0.02 * i, 2) for i in range(20)],  # 31.08 .. 31.46 us
}


def _late_post(comm, rank, size, delay_us):
    data = b"latepost"
    if rank == 0:
        yield from comm.send(data, dest=1)
        return True
    buf = bytearray(len(data))
    yield comm.env.timeout(delay_us)
    req = yield from comm.irecv(buf, source=0)
    yield from comm.wait(req)
    return buf == data


@pytest.mark.parametrize("cores", sorted(RACE_WINDOWS))
@pytest.mark.parametrize("stack", ["lapi-base", "lapi-counters", "lapi-enhanced", "native"])
def test_receive_posted_during_arrival_matches(stack, cores):
    params = MachineParams(cpus_per_node=cores)
    for d in RACE_WINDOWS[cores]:
        cluster = SPCluster(2, stack=stack, params=params, interrupt_mode=True)
        res = cluster.run(_late_post, d)
        assert res.values == [True, True], (stack, cores, d)
