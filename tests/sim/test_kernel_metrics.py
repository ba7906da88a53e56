"""The kernel's ``sim.*`` metrics are exact, and flushed on every exit.

The environment counts pops, process switches and process starts in
plain ints and derives the heap depth from ``_seq - popped``; it writes
them into its registry only when ``run()``/``step()`` return or raise.
These tests compare every flushed value with a reference environment
that recomputes ``len(heap) + len(urgent) + len(normal)`` at every
enqueue, over random process graphs and every way out of the run loop.
A CPU charge that :meth:`Environment.advance` fast-forwards counts, in
the reference too, as the timeout it replaces: its ``_seq`` bump is an
enqueue and its pop resumes the running process once.
"""

import random

import pytest

import repro.cluster.cluster as cluster_module
from repro import SPCluster
from repro.cluster import DeadlockError
from repro.obs import MetricsRegistry
from repro.sim import Environment, Interrupt, Process, SimulationError
from repro.sim.core import NORMAL, URGENT

DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5)
KINDS = ("timeout", "auto", "event", "any", "all", "child", "call_later",
         "interrupt", "succeed")


class _RefProcess(Process):
    """Counts kernel resumptions the way the old per-resume counter did."""

    def _resume(self, event):
        env = self.env
        if env._active_proc is not self:
            env.ref_switches += 1
        super()._resume(event)


class ReferenceEnv(Environment):
    """Recomputes the pending-event count at every enqueue.

    Every enqueue site bumps ``_seq`` and then appends exactly one entry,
    with nothing in between, so the depth right after the enqueue is the
    queue length seen by the ``_seq`` setter plus one.
    """

    def __init__(self, initial_time: float = 0.0, metrics=None):
        self.ref_depths = []
        self.ref_switches = 0
        self.ref_procs = 0
        super().__init__(initial_time,
                         metrics if metrics is not None else MetricsRegistry())

    @property
    def _seq(self):
        return self.__dict__["_seq"]

    @_seq.setter
    def _seq(self, value):
        if value:
            self.ref_depths.append(
                len(self._queue) + len(self._urgent) + len(self._normal) + 1)
        self.__dict__["_seq"] = value

    def process(self, gen, name=""):
        self.ref_procs += 1
        return _RefProcess(self, gen, name=name)

    def advance(self, delay):
        # a fast-forwarded CPU charge stands for a queued timeout that
        # pops next and resumes the running process: one more switch
        if super().advance(delay):
            self.ref_switches += 1
            return True
        return False

    def pending(self) -> int:
        return len(self._queue) + len(self._urgent) + len(self._normal)


def assert_matches_reference(env: ReferenceEnv) -> None:
    snap = env.metrics.snapshot()
    counters, gauge = snap["counters"], snap["gauges"]["sim.heap_depth"]
    depths = env.ref_depths
    assert counters["sim.events_popped"] == len(depths) - env.pending()
    assert gauge["value"] == (depths[-1] if depths else 0)
    assert gauge["high_water"] == max(depths, default=0)
    assert counters["sim.process_switches"] == env.ref_switches
    assert counters["sim.processes_started"] == env.ref_procs


def build_graph(env: Environment, rng: random.Random, nprocs: int = 6) -> list:
    """Spawn a random mix of processes; returns the top-level ones."""
    procs = []
    shared = [env.event() for _ in range(rng.randint(0, 3))]

    def trigger(ev, delay, urgent):
        yield env.timeout(delay)
        ev.succeed(priority=URGENT if urgent else NORMAL)

    for ev in shared:
        env.process(trigger(ev, rng.choice(DELAYS), rng.random() < 0.5))

    def body(depth):
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(KINDS)
            try:
                if kind == "timeout":
                    yield env.timeout(rng.choice(DELAYS))
                elif kind == "auto":
                    yield env.auto_timeout(rng.choice(DELAYS))
                elif kind == "event" and shared:
                    yield rng.choice(shared)
                elif kind == "any":
                    yield env.any_of([env.timeout(rng.choice(DELAYS))
                                      for _ in range(rng.randint(1, 3))])
                elif kind == "all":
                    yield env.all_of([env.timeout(rng.choice(DELAYS))
                                      for _ in range(rng.randint(0, 3))])
                elif kind == "child" and depth < 2:
                    yield env.process(body(depth + 1))
                elif kind == "call_later":
                    env.call_later(rng.choice(DELAYS), lambda _ev: None)
                elif kind == "interrupt":
                    victim = rng.choice(procs)
                    if victim.is_alive and victim is not env.active_process:
                        victim.interrupt("poke")
                elif kind == "succeed":
                    ev = env.event()
                    ev.succeed(priority=rng.choice((URGENT, NORMAL)))
                    yield ev
            except Interrupt:
                pass

    for _ in range(nprocs):
        procs.append(env.process(body(0)))
    return procs


SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
def test_drain_matches_reference(seed):
    env = ReferenceEnv()
    build_graph(env, random.Random(seed))
    env.run()
    assert env.ref_depths, "graph scheduled nothing"
    assert_matches_reference(env)


@pytest.mark.parametrize("seed", SEEDS)
def test_until_time_slices_match_reference(seed):
    env = ReferenceEnv()
    build_graph(env, random.Random(seed))
    t = 0.0
    while env.peek() != float("inf"):
        t += 0.75
        env.run(until=t)
        assert_matches_reference(env)


@pytest.mark.parametrize("seed", SEEDS)
def test_until_event_matches_reference(seed):
    env = ReferenceEnv()
    procs = build_graph(env, random.Random(seed))
    env.run(until=procs[0])
    assert_matches_reference(env)
    env.run(until=env.all_of(procs))
    assert_matches_reference(env)


@pytest.mark.parametrize("seed", range(8))
def test_step_flushes_after_every_event(seed):
    env = ReferenceEnv()
    build_graph(env, random.Random(seed))
    while env.peek() != float("inf"):
        env.step()
        assert_matches_reference(env)


def test_enqueues_between_runs_are_counted():
    env = ReferenceEnv()
    for _ in range(5):
        env.timeout(1.0)
    env.run(until=0.5)  # pops nothing; the five pending timeouts still count
    assert_matches_reference(env)
    assert env.metrics.snapshot()["gauges"]["sim.heap_depth"]["high_water"] == 5
    env.run()
    assert_matches_reference(env)


@pytest.mark.parametrize("seed", range(8))
def test_raising_run_still_flushes(seed):
    env = ReferenceEnv()
    rng = random.Random(seed)
    build_graph(env, rng)

    def crasher():
        yield env.timeout(rng.choice((0.0, 1.0, 2.0)))
        env.timeout(3.0)  # enqueued by the very callback that raises
        raise ValueError("boom")

    env.process(crasher())
    with pytest.raises(ValueError, match="boom"):
        env.run()
    assert_matches_reference(env)


def test_kernel_deadlock_still_flushes():
    env = ReferenceEnv()
    build_graph(env, random.Random(3))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=env.event())  # never triggered
    assert_matches_reference(env)


def test_cluster_deadlock_still_flushes(monkeypatch):
    monkeypatch.setattr(cluster_module, "Environment", ReferenceEnv)
    cluster = SPCluster(2, stack="lapi-enhanced")

    def program(comm, rank, size):
        if rank == 1:  # waits for a message nobody sends
            yield from comm.recv(bytearray(8), source=0)
        return None
        yield

    with pytest.raises(DeadlockError):
        cluster.run(program)
    assert_matches_reference(cluster.env)
    assert cluster.metrics.counter_value("sim.events_popped") > 0


def test_cluster_run_matches_reference(monkeypatch):
    monkeypatch.setattr(cluster_module, "Environment", ReferenceEnv)
    cluster = SPCluster(2, stack="lapi-base", interrupt_mode=True)

    def program(comm, rank, size):
        buf = bytearray(64)
        for _ in range(3):
            if rank == 0:
                yield from comm.send(bytes(64), dest=1)
                yield from comm.recv(buf, source=1)
            else:
                yield from comm.recv(buf, source=0)
                yield from comm.send(bytes(64), dest=0)

    res = cluster.run(program)
    assert_matches_reference(cluster.env)
    assert res.metrics["cluster"] == cluster.metrics.snapshot()


def test_snapshot_inside_a_callback_sees_the_previous_flush():
    env = Environment(metrics=MetricsRegistry())
    env.timeout(1.0)
    env.run()
    assert env.metrics.counter_value("sim.events_popped") == 1
    seen = []

    def reader():
        yield env.timeout(1.0)
        seen.append(env.metrics.counter_value("sim.events_popped"))

    env.process(reader())
    env.run()
    assert seen == [1]  # the value flushed when the first run() returned
    # + the process's start, its timeout and its termination
    assert env.metrics.counter_value("sim.events_popped") == 4
