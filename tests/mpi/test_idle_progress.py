"""Skipped idle progress passes change nothing but the host time.

``Backend.poll_until`` and the native RMA window server
(``NativeRmaEngine._server_loop``) skip a progress pass that would
provably do nothing: the adapter FIFO is empty, no dispatcher-stall
hook is installed and, on Pipes, no other context is draining (a second
dispatcher would park).  Every test here runs a simulation twice: as it
is, and with the skip refused (``ReliableFlows.idle`` patched to answer
False), so that every pass runs.  The pop order (time, priority, seq and
event type of every pop), the results, the metrics snapshots and the
trace records must be identical.
"""

from collections import Counter, deque

import sys

import numpy as np
import pytest

import repro.cluster.cluster as cluster_module
import repro.sim.core as core
from repro import SPCluster
from repro.faults import builtin_plan
from repro.sim import Environment
from repro.sim.core import NORMAL
from repro.transport import ReliableFlows

STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
_real_heappop = core._heappop
_real_idle = ReliableFlows.idle


def simulate(fn, skip=True):
    """``(fn(), pops, skipped passes)`` with every pop logged; with
    ``skip=False`` no progress pass is ever skipped.  The skipped passes
    are counted per skipping loop (``poll_until``, ``_server_loop``)."""
    pops = []
    skipped = Counter()

    def key(entry):
        return entry[0], entry[1], entry[2], type(entry[3]).__name__

    def heappop(heap):
        entry = _real_heappop(heap)
        pops.append(key(entry))
        return entry

    class LoggedDeque(deque):
        def popleft(self):
            entry = super().popleft()
            pops.append(key(entry))
            return entry

    class LoggedEnv(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._urgent, self._normal = LoggedDeque(), LoggedDeque()

        def advance(self, delay):
            ok = super().advance(delay)
            if ok:  # the skipped timeout's pop, as the queue would give it
                pops.append((self._now, NORMAL, self._seq, "_AutoEvent"))
            return ok

    def idle(flows):
        if not skip:
            return False
        out = _real_idle(flows)
        if out:
            # the asking loop, above PipeEndpoint.idle on native
            frame = sys._getframe(1)
            while frame.f_code.co_name == "idle":
                frame = frame.f_back
            skipped[frame.f_code.co_name] += 1
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_heappop", heappop)
        m.setattr(cluster_module, "Environment", LoggedEnv)
        m.setattr(ReliableFlows, "idle", idle)
        out = fn()
    return out, pops, skipped


def _program(comm, rank, size):
    right, left = (rank + 1) % size, (rank - 1) % size
    small, big = bytearray(64), bytearray(20000)
    for n, buf in ((64, small), (20000, big)):
        if rank % 2 == 0:
            yield from comm.send(bytes([rank + 1]) * n, dest=right)
            yield from comm.recv(buf, source=left)
        else:
            yield from comm.recv(buf, source=left)
            yield from comm.send(bytes(buf), dest=right)
    # two rendezvous messages in flight each way
    got = [bytearray(9000), bytearray(9000)]
    reqs = []
    for g in got:
        reqs.append((yield from comm.irecv(g, source=left)))
    for k in range(2):
        reqs.append((yield from comm.isend(bytes([rank, k]) * 4500, dest=right)))
    yield from comm.waitall(reqs)
    total = np.zeros(2)
    yield from comm.allreduce(np.array([rank, 1.0]), total, op="sum")
    # one-sided: the native stack's window server waits in poll_until
    win = yield from comm.win_create(32)
    yield from win.fence()
    yield from win.put(bytes([0xA0 + rank]) * 8, right, 0)
    yield from win.fence()
    peek = bytearray(8)
    yield from win.get(peek, left, 0)
    yield from win.fence()
    yield from win.free()
    return (bytes(small[:4]), bytes(big[-4:]), [bytes(g[:4]) for g in got],
            total.tolist(), bytes(peek), comm.env.now)


def _rma_program(comm, rank, size):
    """Passive-target lock/put/unlock, then a fence epoch with gets: on
    native every op is served by the target's window server."""
    right, left = (rank + 1) % size, (rank - 1) % size
    win = yield from comm.win_create(64)
    yield from win.fence()
    for k in range(3):
        yield from win.lock(right, exclusive=True)
        yield from win.put(bytes([0x10 * rank + k]) * 8, right, 8 * k)
        yield from win.unlock(right)
    yield from comm.barrier()
    yield from win.fence()
    peeks = [bytearray(8) for _ in range(3)]
    for k, peek in enumerate(peeks):
        yield from win.get(peek, left, 8 * k)
    yield from win.fence()
    yield from win.free()
    return [bytes(p) for p in peeks], comm.env.now


def run_cluster(nodes, stack, interrupt_mode, plan=None, program=_program):
    cluster = SPCluster(nodes, stack=stack, interrupt_mode=interrupt_mode,
                        fault_plan=plan, trace=True)
    res = cluster.run(program)
    records = [(r.time, r.node, r.layer, r.event, r.fields)
               for r in cluster.tracer.records]
    return res.values, res.elapsed_us, res.metrics, res.stats.as_dict(), records


def assert_equivalent(fn):
    out, pops, skipped = simulate(fn)
    ref_out, ref_pops, ref_skipped = simulate(fn, skip=False)
    assert not ref_skipped
    assert pops == ref_pops
    assert out == ref_out
    return out, skipped


@pytest.mark.parametrize("interrupt_mode", [False, True],
                         ids=["polling", "interrupt"])
@pytest.mark.parametrize("nodes", [2, 4])
@pytest.mark.parametrize("stack", STACKS)
def test_skipped_passes_match_the_full_passes(stack, nodes, interrupt_mode):
    out, skipped = assert_equivalent(
        lambda: run_cluster(nodes, stack, interrupt_mode))
    values, _, metrics, _, records = out
    assert skipped, "no pass was skipped: the test is vacuous"
    assert records and metrics["trace"]["complete"]
    assert all(v[3] == [sum(range(nodes)), nodes] for v in values)
    if (stack, nodes, interrupt_mode) == ("lapi-base", 4, True):
        return  # a stale get, pinned in tests/mpi/test_rma_remote.py
    for rank, v in enumerate(values):
        assert v[4] == bytes([0xA0 + (rank - 2) % nodes]) * 8


@pytest.mark.parametrize("stack", STACKS)
def test_a_dispatcher_stall_hook_keeps_every_pass(stack):
    out, skipped = assert_equivalent(
        lambda: run_cluster(2, stack, False, builtin_plan("dispatcher-stall")))
    assert not skipped  # a pass may charge a stall: never idle
    assert out[2]["cluster"]["counters"]["fault.dispatcher_stalls"] > 0


@pytest.mark.parametrize("interrupt_mode", [False, True],
                         ids=["polling", "interrupt"])
@pytest.mark.parametrize("nodes", [2, 3])
def test_the_native_window_server_skips_idle_passes(nodes, interrupt_mode):
    out, skipped = assert_equivalent(
        lambda: run_cluster(nodes, "native", interrupt_mode,
                            program=_rma_program))
    values, _, metrics, _, records = out
    assert skipped["_server_loop"], "the window server skipped no pass: vacuous"
    assert records and metrics["trace"]["complete"]
    for rank, (peeks, _) in enumerate(values):
        left = (rank - 1) % nodes
        assert peeks == [bytes([0x10 * ((left - 1) % nodes) + k]) * 8
                         for k in range(3)]
