"""Registries built from a static schema equal registries built by name.

``SPCluster`` creates the counters and gauges each stack's layers take
at build in one pass per node (``repro.cluster.cluster.NODE_METRICS``),
and the kernel's, fabric's and fault injector's in one pass for the
cluster registry (``CLUSTER_METRICS``).  The reference builds the same
clusters with every schema emptied, so ``NodeStats`` and each layer
register their metrics by name, one ``counter``/``gauge`` call at a
time, as they did before the schemas existed.  A fault-free cluster
builds its fault injector only when ``cluster.fault_injector`` is first
read, so the reference reads it right after the build, which registers
every ``fault.*`` counter by name.  Every registry must hold the same
names with the same types, and every snapshot and metrics dict must be
identical (``repr``, so ints stay ints).
"""

import numpy as np
import pytest

import repro.cluster.cluster as cluster_module
from repro import SPCluster
from repro.cluster import STACKS
from repro.faults import builtin_plan

EMPTY = {stack: ((), ()) for stack in STACKS}


def _mpi_program(comm, rank, size):
    right, left = (rank + 1) % size, (rank - 1) % size
    if size > 1:
        buf = bytearray(6000)
        for n in (100, 6000):  # eager and rendezvous
            if rank == 0:
                yield from comm.send(bytes(n), dest=right)
                yield from comm.recv(buf[:n], source=left)
            else:
                yield from comm.recv(buf[:n], source=left)
                yield from comm.send(bytes(n), dest=right)
    total = np.zeros(1)
    yield from comm.allreduce(np.array([rank + 1.0]), total, op="sum")
    win = yield from comm.win_create(16)
    yield from win.fence()
    yield from win.put(bytes([rank]) * 8, right, 0)
    yield from win.fence()
    yield from win.free()
    return float(total[0])


def _raw_program(lapi, rank, size):
    if size > 1 and rank == 0:
        for dst in range(1, size):
            yield from lapi.amsend("user", dst, "_lapi_null", {}, b"x" * 300)
    yield lapi.env.timeout(500.0)
    return rank


def _build_and_run(stack, nodes, interrupt, trace, plan, by_name=False):
    cluster = SPCluster(nodes, stack=stack, interrupt_mode=interrupt,
                        trace=trace, fault_plan=plan, seed=3)
    if by_name:
        cluster.fault_injector
    regs = [cluster.metrics] + [s.registry for s in cluster.node_stats]
    built = [_layout(r) for r in regs]
    program = _raw_program if stack == "raw-lapi" else _mpi_program
    res = cluster.run(program)
    ran = [_layout(r) for r in regs]
    return built, ran, repr(res.metrics), res.values, res.stats.as_dict()


def _by_name(monkeypatch):
    monkeypatch.setattr(cluster_module, "NODE_METRICS", EMPTY)
    monkeypatch.setattr(cluster_module, "CLUSTER_METRICS", ((), ()))


def _layout(reg):
    names = {n: "counter" for n in reg._counters}
    names.update({n: "gauge" for n in reg._gauges})
    names.update({n: "histogram" for n in reg._histograms})
    return names, repr(reg.snapshot())


CASES = [(stack, nodes, interrupt, trace, None)
         for stack in STACKS for nodes in (1, 2, 4)
         for interrupt in (False, True) for trace in (False, True)]
CASES += [(stack, 2, False, True, "loss-burst") for stack in STACKS]
CASES += [(stack, 2, True, False, "chaos") for stack in STACKS]


@pytest.mark.parametrize("stack,nodes,interrupt,trace,plan", CASES)
def test_schema_registries_equal_registries_built_by_name(
        stack, nodes, interrupt, trace, plan, monkeypatch):
    fault_plan = builtin_plan(plan) if plan else None
    got = _build_and_run(stack, nodes, interrupt, trace, fault_plan)
    _by_name(monkeypatch)
    want = _build_and_run(stack, nodes, interrupt, trace, fault_plan,
                          by_name=True)
    assert got == want


def test_the_schema_is_exactly_what_each_stack_registers_at_build(monkeypatch):
    """Nothing a layer takes at build is left to a by-name creation, and
    the schema holds nothing the layers do not take."""
    schema = {stack: tuple(map(set, cluster_module.NODE_METRICS[stack]))
              for stack in STACKS}
    cluster_schema = tuple(map(set, cluster_module.CLUSTER_METRICS))
    _by_name(monkeypatch)
    for stack in STACKS:
        cluster = SPCluster(2, stack=stack)
        cluster.fault_injector
        for reg in (s.registry for s in cluster.node_stats):
            assert (set(reg._counters), set(reg._gauges)) == schema[stack], stack
            assert not reg._histograms
        reg = cluster.metrics
        assert (set(reg._counters), set(reg._gauges)) == cluster_schema
