"""Fast-forwarded CPU charges change nothing but the host time.

``Environment.advance`` lets an uncontended ``Cpu.execute`` charge pass
inline when its timeout would be the very next pop.  Every test here
runs a simulation twice: as it is, and with ``Environment.advance``
patched to refuse, so that every charge is a queued timeout.  The pop
order (time, priority, seq and event type of every pop, a fast-forwarded
charge counting as the pop of its timeout), the results, the metrics
snapshots and the trace records must be identical.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.cluster.cluster as cluster_module
import repro.sim.core as core
from repro import SPCluster
from repro.machine import Cpu, MachineParams, NodeStats
from repro.obs import MetricsRegistry
from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.core import NORMAL

STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
_real_heappop = core._heappop


def _key(entry):
    return entry[0], entry[1], entry[2], type(entry[3]).__name__


def simulate(fn, fast_forward=True):
    """``(fn(env_class), pops, advance results)`` with every pop logged.

    ``fn`` gets the logging environment class; clusters built inside it
    use that class too.  With ``fast_forward=False`` the run is the
    reference: ``Environment.advance`` always refuses.
    """
    pops, results = [], []

    def heappop(heap):
        entry = _real_heappop(heap)
        pops.append(_key(entry))
        return entry

    class LoggedDeque(deque):
        def popleft(self):
            entry = super().popleft()
            pops.append(_key(entry))
            return entry

    class LoggedEnv(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._urgent, self._normal = LoggedDeque(), LoggedDeque()

        def advance(self, delay):
            ok = super().advance(delay)
            if ok:  # the skipped timeout's pop, as the queue would give it
                pops.append((self._now, NORMAL, self._seq, "_AutoEvent"))
            results.append(ok)
            return ok

    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_heappop", heappop)
        m.setattr(cluster_module, "Environment", LoggedEnv)
        if not fast_forward:
            m.setattr(Environment, "advance", lambda self, delay: False)
        out = fn(LoggedEnv)
    return out, pops, results


def assert_equivalent(fn, expect_fast_forward=True):
    """Run ``fn`` both ways; return the fast-forwarded run's output."""
    out, pops, results = simulate(fn)
    ref_out, ref_pops, ref_results = simulate(fn, fast_forward=False)
    assert not any(ref_results)
    assert pops == ref_pops
    assert out == ref_out
    if expect_fast_forward:
        assert any(results), "nothing was fast-forwarded: the test is vacuous"
    return out, results


# ------------------------------------------------------------------ graphs
THREADS = ("user", "cmpl", "irq0")
COSTS = (0.0, 0.5, 1.0, 2.5)
DELAYS = (0.0, 0.5, 1.0, 3.0)

op = st.one_of(
    st.tuples(st.just("cpu"), st.integers(0, 2), st.sampled_from(THREADS),
              st.sampled_from(COSTS)),
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("later"), st.sampled_from(DELAYS)),
)
graphs = st.lists(st.lists(op, min_size=1, max_size=8), min_size=1, max_size=5)


def run_graph(env_cls, spec, mode):
    """Run a process graph over two uniprocessor CPUs and one 2-way SMP."""
    env = env_cls(metrics=MetricsRegistry())
    params = MachineParams()
    cpus = [Cpu(env, params, NodeStats(), cores=c) for c in (1, 1, 2)]
    shared = [env.event() for _ in range(3)]
    seen = []
    procs = []

    def body(i, ops):
        for k, (kind, *arg) in enumerate(ops):
            try:
                if kind == "cpu":
                    yield from cpus[arg[0]].execute(arg[1], arg[2])
                elif kind == "timeout":
                    yield env.timeout(arg[0])
                elif kind == "wait":
                    yield shared[arg[0]]
                elif kind == "fire" and not shared[arg[0]].triggered:
                    shared[arg[0]].succeed(k)
                elif kind == "interrupt":
                    victim = procs[arg[0] % len(procs)]
                    if victim.is_alive and victim is not env.active_process:
                        victim.interrupt(i)
                elif kind == "later":
                    env.call_later(arg[0], lambda ev, i=i: seen.append(
                        ("later", i, env.now)))
            except Interrupt as exc:
                seen.append(("irq", i, exc.cause, env.now))
            seen.append((i, k, env.now))
        return env.now

    def closer():  # fires every shared event late, so no wait hangs
        yield env.timeout(7.0)
        for ev in shared:
            if not ev.triggered:
                ev.succeed()

    for i, ops in enumerate(spec):
        procs.append(env.process(body(i, ops)))
    env.process(closer())
    if mode == "drain":
        env.run()
    elif mode == "slices":
        t = 0.0
        while env.peek() != float("inf"):
            t += 0.75
            env.run(until=t)
    elif mode == "event":
        try:
            env.run(until=procs[0])
        except SimulationError:  # procs[0] is stranded (see below)
            seen.append(("stranded", env.now))
        env.run()
    else:
        while env.peek() != float("inf"):
            env.step()
    # a process interrupted while queued for a core can strand it, and
    # the processes behind it then never finish: compare what they did
    values = [p.value if p.triggered else None for p in procs]
    return (seen, values, env.now, env.metrics.snapshot(),
            [(c.busy_us, c.stats.as_dict()) for c in cpus])


@settings(max_examples=100, deadline=None)
@given(graphs, st.sampled_from(["drain", "slices", "event", "step"]))
# the first process is interrupted while queued for the core, which it
# then never gets back: run(until=procs[0]) reports a deadlock
@example([[("timeout", 0.0), ("cpu", 0, "user", 1.0), ("timeout", 3.0),
           ("cpu", 0, "user", 1.0)],
          [("cpu", 0, "user", 2.5)],
          [("timeout", 0.5), ("interrupt", 0)]], "event")
def test_process_graphs_match_the_queued_run(spec, mode):
    _, results = assert_equivalent(lambda cls: run_graph(cls, spec, mode),
                                   expect_fast_forward=False)
    if mode == "step":
        assert not any(results)


def test_a_busy_graph_fast_forwards():
    spec = [[("timeout", 1.0), ("cpu", 0, "user", 0.25),
             ("cpu", 0, "user", 0.25), ("cpu", 0, "irq0", 0.5),
             ("timeout", 1.0), ("cpu", 1, "user", 2.5)],
            [("timeout", 3.0), ("cpu", 0, "cmpl", 1.0)]]
    for mode in ("drain", "slices", "event"):
        assert_equivalent(lambda cls: run_graph(cls, spec, mode))


# ---------------------------------------------------------------- clusters
def _program(comm, rank, size, interrupt_mode):
    peer = rank ^ 1
    small, big = bytearray(64), bytearray(20000)
    for n, buf in ((64, small), (20000, big)):
        for _ in range(2):
            if rank % 2 == 0:
                yield from comm.send(bytes([rank + 1]) * n, dest=peer)
                yield from comm.recv(buf, source=peer)
            else:
                yield from comm.recv(buf, source=peer)
                yield from comm.send(bytes(buf), dest=peer)
    spins = 0
    if interrupt_mode and rank % 2 == 1:
        # the Fig 13 responder: spin on the buffer, not on MPI calls
        landing = np.zeros(64, dtype=np.uint8)
        req = yield from comm.irecv(landing, source=peer)
        yield from comm.barrier()
        while landing[-1] != 7 and spins < 10000:
            yield from comm.backend.cpu.execute(
                "user", comm.backend.params.poll_check_us)
            spins += 1
        yield from comm.wait(req)
    elif interrupt_mode:
        yield from comm.barrier()
        yield from comm.send(bytes([7]) * 64, dest=peer)
    total = np.zeros(2)
    yield from comm.allreduce(np.array([rank, 1.0]), total, op="sum")
    return bytes(small[:4]), bytes(big[-4:]), total.tolist(), spins, comm.env.now


def run_cluster(env_cls, nodes, stack, interrupt_mode):
    cluster = SPCluster(nodes, stack=stack, interrupt_mode=interrupt_mode,
                        trace=True)
    assert isinstance(cluster.env, env_cls)
    res = cluster.run(_program, interrupt_mode)
    records = [(r.time, r.node, r.layer, r.event, r.fields)
               for r in cluster.tracer.records]
    return (res.values, res.elapsed_us, res.metrics, res.stats.as_dict(),
            records)


@pytest.mark.parametrize("interrupt_mode", [False, True],
                         ids=["polling", "interrupt"])
@pytest.mark.parametrize("nodes", [2, 4])
@pytest.mark.parametrize("stack", STACKS)
def test_cluster_runs_match_the_queued_run(stack, nodes, interrupt_mode):
    out, _ = assert_equivalent(
        lambda cls: run_cluster(cls, nodes, stack, interrupt_mode))
    values, _, metrics, _, records = out
    assert records and metrics["trace"]["complete"]
    assert all(v[2] == [sum(range(nodes)), nodes] for v in values)
    assert all(v[3] < 10000 for v in values)  # every spin saw its data


# -------------------------------------------------------------- edge cases
def _charger(env, cpu, costs, log):
    for c in costs:
        yield from cpu.execute("user", c)
        log.append(env.now)


def test_advance_refuses_a_tie_and_takes_a_strictly_earlier_gap():
    env = Environment()
    answers = []

    def proc():
        env.timeout(2.0)
        answers.append(env.advance(2.0))  # tie with the pending timeout
        answers.append(env.advance(1.5))
        answers.append(env.now)
        answers.append(env.advance(0.5))  # 1.5 + 0.5 ties again
        now = env.event()
        now.succeed()
        answers.append(env.advance(0.25))  # an entry is due at this instant
        yield now
        answers.append(env.advance(0.25))
        answers.append(env.now)

    env.process(proc())
    env.run()
    assert answers == [False, True, 1.5, False, False, True, 1.75]


def test_advance_outside_a_run_callback_refuses():
    env = Environment()
    assert env.advance(1.0) is False and env.now == 0.0
    env.run()
    assert env.advance(1.0) is False and env.now == 0.0


@pytest.mark.parametrize("cost", [1.0, 2.0, 2.5])
def test_run_until_never_passes_its_bound(cost):
    def run(cls):
        env = cls()
        cpu = Cpu(env, MachineParams(), NodeStats())
        log = []
        env.process(_charger(env, cpu, [cost] * 3, log))
        env.run(until=2.0)
        stopped = (env.now, list(log), env._popped)
        env.run()
        # no registry: run() folds the fast-forwarded pops in on return
        return stopped, log, env.now, env._popped, env._switches

    (stopped, log, *_), results = assert_equivalent(run)
    assert stopped[0] == 2.0
    assert all(t <= 2.0 for t in stopped[1])
    assert log == [cost, 2 * cost, 3 * cost]
    # the charge ending exactly at the bound still fast-forwards
    assert results[0] is (cost <= 2.0)


def test_an_event_with_two_waiters_never_fast_forwards_the_first():
    def run(cls):
        env = cls()
        cpu = Cpu(env, MachineParams(), NodeStats())
        gate = env.event()
        log = []

        def waiter(name):
            yield gate
            yield from cpu.execute(name, 1.0)
            log.append((name, env.now))

        def opener():
            yield env.timeout(1.0)
            gate.succeed()

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.process(opener())
        env.run()
        return log

    out, pops, results = simulate(run)
    assert (out, pops) == simulate(run, fast_forward=False)[:2]
    # "a" ran as the first of the gate's two callbacks: refused.  "b"
    # waited for the core and got it handed over when "a" finished; its
    # charge is refused too, since "a"'s exit is due at that instant
    assert results == [False, False]


def test_a_failing_process_after_fast_forwards_flushes_exact_counts():
    def run(cls):
        env = cls(metrics=MetricsRegistry())
        cpu = Cpu(env, MachineParams(), NodeStats())

        def crasher():
            yield env.timeout(1.0)
            yield from cpu.execute("user", 2.0)
            yield from cpu.execute("user", 3.0)
            env.timeout(4.0)  # enqueued by the very callback that fails
            raise ValueError("boom")

        env.process(crasher())
        with pytest.raises(ValueError, match="boom"):
            env.run()
        assert env._solo is False and env._ff == 0
        return env.now, env.metrics.snapshot()

    out, _ = assert_equivalent(run)
    assert out[0] == 6.0


def test_a_callback_raising_after_advance_clears_the_flag():
    env = Environment(metrics=MetricsRegistry())

    def crash(_ev):
        assert env.advance(2.0)
        raise ValueError("boom")

    env.call_later(1.0, crash)
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert env._solo is False and env._ff == 0 and env.now == 3.0
    assert env.advance(1.0) is False  # no longer inside a run() callback

    def counts():
        snap = env.metrics.snapshot()
        depth = snap["gauges"]["sim.heap_depth"]
        return (snap["counters"]["sim.events_popped"],
                snap["counters"]["sim.process_switches"],
                depth["value"], depth["high_water"])

    # the call_later event plus the advanced charge, counted as a popped
    # timeout that resumed a process; one entry was ever pending at once
    assert counts() == (2, 1, 1, 1)
    env.timeout(1.0)  # the gauge's value is the depth at the last enqueue
    env.run()
    assert counts() == (3, 1, 1, 1)


def test_step_never_fast_forwards():
    def run(cls):
        env = cls(metrics=MetricsRegistry())
        cpu = Cpu(env, MachineParams(), NodeStats())
        log = []
        env.process(_charger(env, cpu, [1.0, 2.0], log))
        while env.peek() != float("inf"):
            env.step()
        return log, env.metrics.snapshot()

    out, _ = assert_equivalent(run, expect_fast_forward=False)
    assert out[0] == [1.0, 3.0]
    assert simulate(run)[2] == [False, False]


class _Slowdown:
    def __init__(self, factor):
        self.factor = factor

    def slowdown(self, now):
        return self.factor


@pytest.mark.parametrize("factor", [1.0, 2.5])
def test_a_cpu_with_a_fault_hook_fast_forwards_its_slowed_charge(factor):
    def run(cls):
        env = cls()
        cpu = Cpu(env, MachineParams(), NodeStats())
        cpu.faults = _Slowdown(factor)
        log = []
        env.process(_charger(env, cpu, [1.0, 2.0], log))
        env.run()
        return log, cpu.busy_us

    out, results = assert_equivalent(run)
    # the general path charges the slowed cost, then asks advance()
    assert out == ([factor, 3 * factor], 3 * factor)
    assert results == [True, True]


@pytest.mark.parametrize("gap", [0.5, 2.0, 10.0])
def test_a_handed_over_core_fast_forwards_exactly_when_next(gap):
    def run(cls):
        env = cls()
        cpu = Cpu(env, MachineParams(), NodeStats())
        log = []

        def holder():
            yield from cpu.execute("user", 1.0)
            log.append(("holder", env.now))
            yield env.timeout(gap)  # its next pop, after the hand-off
            log.append(("holder", env.now))

        env.process(holder())                        # holds the core
        env.process(_charger(env, cpu, [2.0], log))  # queues behind it
        env.run()
        return log, cpu.busy_us

    out, results = assert_equivalent(run, expect_fast_forward=gap > 2.0)
    assert out[1] == 3.0
    # the first charge is refused (the second process's start is due at
    # the same instant); the handed-over charge, from t=1 to t=3, passes
    # inline only when the holder's timeout lies strictly later (a tie
    # never fast-forwards)
    assert results == [False, gap > 2.0]
