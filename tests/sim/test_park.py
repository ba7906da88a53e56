"""One shared wake event per sleep changes nothing but the pop count.

``Environment.park`` hands every wake source of a sleep the same
trigger event; the sources that lose the race only hold it in their
waiter lists.  Every test here runs a simulation twice: as it is, and
with ``Environment.park`` replaced by the sleep it replaced, an
``AnyOf`` over one fresh event per source (kept here only).  Once the
reference's losing events (popped with no callbacks) are dropped, the
pop order (time, priority and role of every pop, a fast-forwarded
charge counting as the pop of its timeout), the results, the metrics
other than ``sim.events_popped``/``sim.heap_depth`` and the trace
records must be identical.
"""

import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cluster.cluster as cluster_module
import repro.sim.core as core
from repro import SPCluster
from repro.lapi.counters import Counter
from repro.mpi.request import Request
from repro.mpi.rma import Window
from repro.obs import MetricsRegistry
from repro.sim import AnyOf, Environment
from repro.sim.core import NORMAL
from repro.transport.flows import wake_all

STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
KERNEL_ONLY = ("sim.events_popped", "sim.heap_depth")
_real_heappop = core._heappop
_real_park = Environment.park


def reference_park(env, *arms):
    """The sleep every progress loop built before ``park``."""
    evs = [env.event() for _ in arms]
    for arm, ev in zip(arms, evs):
        arm(ev)
    return AnyOf(env, evs)


class Run:
    """Pops, parks and losing events seen by one simulation."""

    def __init__(self):
        self.pops = []
        self.losers = 0
        #: caller and arm names of every park
        self.sites = set()
        self.arms = set()


def simulate(fn, reference=False):
    """``(fn(env_class), Run)`` with every pop logged by role.

    A trigger (or the reference's winning constituent) pops as
    ``relay``, the event the process yielded as ``wake``; every other
    pop is logged by its event type.  ``fn`` gets the logging
    environment class; clusters built inside it use that class too.
    """
    run = Run()
    roles = {}  # id(event) -> role while the event is in flight
    keep = []  # holds labelled events so no id is reused meanwhile

    def log(entry):
        ev = entry[3]
        role = roles.pop(id(ev), None)
        if role == "relay" and not ev.callbacks:
            assert reference, "park queued a losing event"
            run.losers += 1
            return
        run.pops.append((entry[0], entry[1], role or type(ev).__name__))

    def heappop(heap):
        entry = _real_heappop(heap)
        log(entry)
        return entry

    class LoggedDeque(deque):
        def popleft(self):
            entry = super().popleft()
            log(entry)
            return entry

    def park(env, *arms):
        caller = sys._getframe(1).f_code
        run.sites.add(caller.co_qualname)
        run.arms.update(a.__qualname__ for a in arms)
        if reference:
            wake = reference_park(env, *arms)
            relays = wake._events
        else:
            relays = []
            wake = _real_park(env, relays.append, *arms)
        for ev in relays:
            roles[id(ev)] = "relay"
        roles[id(wake)] = "wake"
        keep.extend(relays)
        keep.append(wake)
        return wake

    class LoggedEnv(Environment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._urgent, self._normal = LoggedDeque(), LoggedDeque()

        def advance(self, delay):
            ok = super().advance(delay)
            if ok:  # the skipped timeout's pop, as the queue would give it
                run.pops.append((self._now, NORMAL, "_AutoEvent"))
            return ok

    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_heappop", heappop)
        m.setattr(cluster_module, "Environment", LoggedEnv)
        m.setattr(Environment, "park", park)
        out = fn(LoggedEnv)
    return out, run


def _split(tree):
    """``(tree without the kernel-activity metrics, their values)``."""
    if not isinstance(tree, dict):
        return tree, []
    rest, kernel = {}, []
    for k, v in sorted(tree.items()):
        if k in KERNEL_ONLY:
            kernel.append(v)
        else:
            rest[k], sub = _split(v)
            kernel.extend(sub)
    return rest, kernel


def _falls(new, old):
    """Every kernel count of ``new`` is at most the reference's."""
    for a, b in zip(new, old):
        if isinstance(a, dict):
            assert a["high_water"] <= b["high_water"]
        else:
            assert a <= b


def assert_equivalent(fn):
    """Run ``fn`` with ``park`` and with the reference; compare; return
    the park run's output and the two :class:`Run` logs.  ``fn``
    returns a tuple whose first dict-valued items may hold metrics."""
    out, run = simulate(fn)
    ref_out, ref = simulate(fn, reference=True)
    assert run.pops == ref.pops
    assert run.losers == 0
    assert (run.sites, run.arms) == (ref.sites, ref.arms)
    rest, kernel = _split(dict(enumerate(out)))
    ref_rest, ref_kernel = _split(dict(enumerate(ref_out)))
    assert rest == ref_rest
    _falls(kernel, ref_kernel)
    return out, run, ref


# ------------------------------------------------------------------ kernel
class Sources:
    """Three kinds of wake source: a request, a counter, a waiter list."""

    def __init__(self, env, kinds):
        self.kinds = kinds
        self.objs = []
        for kind in kinds:
            if kind == "request":
                self.objs.append(Request(env, "recv"))
            elif kind == "counter":
                self.objs.append(Counter(env))
            else:
                self.objs.append([])

    def arm(self, i):
        obj = self.objs[i]
        return obj.append if isinstance(obj, list) else obj.arm

    def fire(self, i):
        obj = self.objs[i]
        if isinstance(obj, Request):
            if not obj.done:
                obj.complete()
        elif isinstance(obj, Counter):
            obj.incr()
        else:
            wake_all(obj)


def run_sleepers(env_cls, kinds, sleeps, fires):
    """Processes that park on source subsets while others fire them.

    ``sleeps`` is one list of (delay, source indices) per sleeper,
    ``fires`` a list of (time, source index).  A closer fires every
    source late, so no sleep outlasts the run.
    """
    env = env_cls(metrics=MetricsRegistry())
    src = Sources(env, kinds)
    seen = []

    def sleeper(i, plan):
        for k, (delay, idx) in enumerate(plan):
            yield env.timeout(delay)
            yield env.park(*[src.arm(j) for j in idx])
            seen.append((i, k, env.now))

    def firer(t, j):
        yield env.timeout(t)
        src.fire(j)
        seen.append(("fire", j, env.now))

    def closer():
        for _ in range(8):
            yield env.timeout(10.0)
            for j in range(len(kinds)):
                src.fire(j)

    for i, plan in enumerate(sleeps):
        env.process(sleeper(i, plan))
    for t, j in fires:
        env.process(firer(t, j))
    env.process(closer())
    env.run()
    return seen, env.now, env.metrics.snapshot()


TIMES = (0.0, 0.5, 1.0, 2.0)


@st.composite
def sleeper_graphs(draw):
    kinds = draw(st.lists(st.sampled_from(["request", "counter", "list"]),
                          min_size=1, max_size=4))
    index = st.integers(0, len(kinds) - 1)
    sleeps = draw(st.lists(st.lists(st.tuples(
        st.sampled_from(TIMES), st.lists(index, min_size=1, max_size=4)),
        min_size=1, max_size=4), min_size=1, max_size=4))
    fires = draw(st.lists(st.tuples(st.sampled_from(TIMES), index), max_size=8))
    return kinds, sleeps, fires


@settings(max_examples=150, deadline=None)
@given(sleeper_graphs())
def test_sleeper_graphs_match_the_anyof_reference(graph):
    kinds, sleeps, fires = graph
    (seen, *_), run, _ = assert_equivalent(
        lambda cls: run_sleepers(cls, kinds, sleeps, fires))
    assert sum(1 for s in seen if s[0] != "fire") == sum(map(len, sleeps))


# -------------------------------------------------------------- edge cases
def test_a_source_ready_at_park_time_fires_the_trigger_at_once():
    def run(cls):
        env = cls(metrics=MetricsRegistry())
        done, pending, waiters = Request(env, "recv"), Request(env, "recv"), []
        done.complete()
        log = []

        def proc():
            yield env.park(pending.arm, done.arm, waiters.append)
            log.append(env.now)
            # the losers hold the fired trigger; a later fire skips it
            assert len(pending._waiters) == len(waiters) == 1
            pending.complete()
            wake_all(waiters)
            yield env.timeout(1.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        return log, env.metrics.snapshot()

    (log, _), run_, ref = assert_equivalent(run)
    assert log == [0.0, 1.0]
    assert ref.losers == 2 and run_.losers == 0


def test_two_sources_firing_at_the_same_instant_resume_once():
    def run(cls):
        env = cls(metrics=MetricsRegistry())
        cntr, req = Counter(env), Request(env, "recv")
        log = []

        def sleeper():
            yield env.park(cntr.arm, req.arm)
            log.append(("woke", env.now))

        def firer():
            yield env.timeout(2.0)
            cntr.incr()
            req.complete()
            cntr.incr()  # the trigger is gone from the counter's list

        env.process(sleeper())
        env.process(firer())
        env.run()
        return log, env.metrics.snapshot()

    (log, _), run_, ref = assert_equivalent(run)
    assert log == [("woke", 2.0)]
    assert [p[2] for p in run_.pops].count("relay") == 1
    assert ref.losers == 1


def test_a_stale_trigger_is_never_fired_twice_and_never_raises():
    env = Environment()
    first, second = [], []
    woken = []

    def proc():
        value = yield env.park(first.append, second.append)
        woken.append((env.now, value))

    env.process(proc())
    env.run()
    trigger = first[0]
    assert second == [trigger] and not trigger.triggered
    wake_all(first)
    env.run()
    assert woken == [(0.0, trigger)] and trigger.callbacks is None
    # the second list still holds the processed trigger: firing it later
    # skips it, queues nothing and resumes nobody
    seq = env._seq
    wake_all(second)
    env.run()
    assert second == [] and env._seq == seq and woken == [(0.0, trigger)]


@pytest.mark.parametrize("stack", STACKS)
def test_waitany_over_the_same_request_twice(stack):
    def program(comm, rank, size):
        if rank == 0:
            yield from comm.backend.cpu.execute("user", 200.0)
            yield from comm.send(b"z" * 64, dest=1)
            return None
        buf = bytearray(64)
        req = yield from comm.irecv(buf, source=0)
        i, status = yield from comm.waitany([req, req])
        return i, status.count, bytes(buf[:1])

    def run(cls):
        res = SPCluster(2, stack=stack).run(program)
        return res.metrics, res.values, res.elapsed_us

    (_, values, _), run_, _ = assert_equivalent(run)
    assert values[1] == (0, 64, b"z")
    assert "Communicator.waitany" in run_.sites


# ---------------------------------------------------------------- clusters
def reqs_done(ra, rb, i):
    """Whether waitany's index names a completed request."""
    return [rb, ra, ra][i].done


def _program(comm, rank, size):
    """Reaches every sleep of the MPI stacks: eager bursts that fill the
    native pipe buffer and the flow windows, a blocking rendezvous
    send, waitany over a repeated request, and fence and lock epochs."""
    peer = rank ^ 1
    lo = rank < peer
    out = []
    n, sz = 24, 4000
    if lo:
        reqs = []
        for k in range(n):
            reqs.append((yield from comm.isend(bytes([k]) * sz, dest=peer, tag=k)))
        yield from comm.waitall(reqs)
        yield from comm.send(b"R" * 20000, dest=peer, tag=50)
        yield from comm.backend.cpu.execute("user", 300.0)
        yield from comm.send(b"x" * 64, dest=peer, tag=100)
        yield from comm.backend.cpu.execute("user", 200.0)
        yield from comm.send(b"y" * 64, dest=peer, tag=101)
    else:
        bufs = [bytearray(sz) for _ in range(n)]
        reqs = []
        for k, buf in enumerate(bufs):
            reqs.append((yield from comm.irecv(buf, source=peer, tag=k)))
        yield from comm.waitall(reqs)
        out.append(all(b == bytes([k]) * sz for k, b in enumerate(bufs)))
        big = bytearray(20000)
        yield from comm.recv(big, source=peer, tag=50)
        out.append(big == b"R" * 20000)
        a, b = bytearray(64), bytearray(64)
        ra = yield from comm.irecv(a, source=peer, tag=100)
        rb = yield from comm.irecv(b, source=peer, tag=101)
        i, _ = yield from comm.waitany([rb, ra, ra])
        j, _ = yield from comm.waitany([rb, rb])
        out.append((reqs_done(ra, rb, i), j, bytes(a[:2]), bytes(b[:2])))
    win = yield from comm.win_create(64)
    yield from win.fence()
    yield from win.put(bytes([rank + 1]) * 8, peer, 8)
    yield from win.fence()
    if lo:  # the origin starts before the target's post arrives
        yield from win.start([peer])
        yield from win.put(b"\x07" * 4, peer, 24)
        yield from win.complete()
    else:
        yield from comm.backend.cpu.execute("user", 100.0)
        yield from win.post([peer])
        yield from win.wait()
    if lo:
        yield from win.lock(peer, exclusive=True)
        yield from win.put(b"\x09" * 4, peer, 32)
        yield from comm.send(b"L", dest=peer, tag=200)
        yield from comm.backend.cpu.execute("user", 100.0)
        yield from win.unlock(peer)
    else:  # asks for its own window while the origin holds it
        yield from comm.recv(bytearray(1), source=peer, tag=200)
        yield from win.lock(rank, exclusive=True)
        yield from win.put(b"\x05" * 4, rank, 40)
        yield from win.unlock(rank)
    yield from comm.barrier()
    out.append(bytes(win.mem)[:40])
    yield from win.free()
    return out, comm.env.now


def run_cluster(env_cls, nodes, stack, interrupt_mode):
    cluster = SPCluster(nodes, stack=stack, interrupt_mode=interrupt_mode,
                        trace=True)
    assert isinstance(cluster.env, env_cls)
    res = cluster.run(_program)
    records = [(r.time, r.node, r.layer, r.event, r.fields)
               for r in cluster.tracer.records]
    return (res.metrics, res.values, res.elapsed_us, res.stats.as_dict(),
            records)


SLEEPS = {"Backend.poll_until", "ReliableFlows.dispatch_until",
          "Communicator.waitany"}
NATIVE_SLEEPS = SLEEPS | {"NativeBackend._throttle",
                          "NativeRmaEngine._server_loop"}
LAPI_SLEEPS = SLEEPS | {"Lapi.poll_until"}


@pytest.mark.parametrize("interrupt_mode", [False, True],
                         ids=["polling", "interrupt"])
@pytest.mark.parametrize("nodes", [2, 4])
@pytest.mark.parametrize("stack", STACKS)
def test_cluster_runs_match_the_anyof_reference(stack, nodes, interrupt_mode):
    out, run, ref = assert_equivalent(
        lambda cls: run_cluster(cls, nodes, stack, interrupt_mode))
    metrics, values, _, _, records = out
    assert records and metrics["trace"]["complete"]
    for rank, (v, _) in enumerate(values):
        if rank % 2:
            assert v[:3] == [True, True, (True, 0, b"xx", b"yy")]
            assert v[-1][24:36] == b"\x07" * 4 + bytes(4) + b"\x09" * 4
        assert v[-1][8:16] == bytes([(rank ^ 1) + 1]) * 8
    assert ref.losers > 0
    assert run.sites == (NATIVE_SLEEPS if stack == "native" else LAPI_SLEEPS)
    if stack != "native":
        assert "PendingSend.arm" in run.arms  # a blocking rendezvous send
    assert {"Hal.arm_rx", "Request.arm", "Window.arm",
            "list.append"} <= run.arms


def _raw_program(lapi, rank, size):
    """Raw LAPI: puts counted on both sides, waitcntr and a fence."""
    peer = rank ^ 1
    buf = bytearray(8 * 5000)
    lapi.address_init("r", buf)
    cid, cntr = lapi.create_counter()
    org = Counter(lapi.env, "org")
    for i in range(8):
        yield from lapi.put("user", peer, "r", i * 5000, bytes([i]) * 5000,
                            tgt_cntr_id=cid, org_cntr=org)
    yield from lapi.waitcntr("user", org, 8)
    yield from lapi.fence("user")
    yield from lapi.waitcntr("user", cntr, 8)
    return bytes(buf[::5000]), lapi.env.now


@pytest.mark.parametrize("interrupt_mode", [False, True],
                         ids=["polling", "interrupt"])
def test_raw_lapi_runs_match_the_anyof_reference(interrupt_mode):
    def run(cls):
        cluster = SPCluster(2, stack="raw-lapi", interrupt_mode=interrupt_mode,
                            trace=True)
        res = cluster.run(_raw_program)
        return (res.metrics, res.values,
                [(r.time, r.node, r.layer, r.event, r.fields)
                 for r in cluster.tracer.records])

    (_, values, _), run_, _ = assert_equivalent(run)
    assert all(v[0] == bytes(range(8)) for v in values)
    assert "Lapi.poll_until" in run_.sites and "Counter.arm" in run_.arms


# ---------------------------------------------------- short waiter lists
def _stream_and_epochs(comm, rank, size):
    """Two rendezvous messages in flight, then a fence and a lock epoch."""
    peer = rank ^ 1
    n = 3 * comm.backend.params.eager_limit
    if rank == 0:
        reqs = []
        for k in range(2):
            reqs.append((yield from comm.isend(bytes([k + 1]) * n, dest=peer)))
    else:
        got = [bytearray(n), bytearray(n)]
        reqs = []
        for g in got:
            reqs.append((yield from comm.irecv(g, source=peer)))
    yield from comm.waitall(reqs)
    win = yield from comm.win_create(4096)
    yield from win.fence()
    yield from win.put(bytes([rank + 1]) * 4096, peer, 0)
    yield from win.fence()
    if rank == 0:
        yield from win.lock(peer)
        yield from win.accumulate(bytes([1]) * 64, peer, 0, op="sum")
        yield from win.unlock(peer)
    yield from comm.barrier()
    yield from win.free()
    return bytes(win.mem[:2]) + (bytes(got[1][-2:]) if rank else b"")


@pytest.mark.parametrize("stack", STACKS)
def test_waiter_lists_hold_only_live_sleepers(stack):
    """Every ``arm`` drops the triggers another source fired first, so a
    source never holds more than its live sleepers plus the one trigger
    just armed (which the adapter may have fired during this park)."""
    lists = {Request: "_waiters", Counter: "_waiters", Window: "_wake_evs"}
    arms = dict.fromkeys(lists, 0)
    stale = dict.fromkeys(lists, 0)

    def watched(cls, real):
        def arm(self, ev):
            real(self, ev)
            waiters = getattr(self, lists[cls])
            arms[cls] += 1
            live = sum(1 for w in waiters if not w.triggered)
            stale[cls] = max(stale[cls], len(waiters) - live)

        return arm

    with pytest.MonkeyPatch.context() as m:
        for cls in lists:
            m.setattr(cls, "arm", watched(cls, cls.arm))
        res = SPCluster(2, stack=stack).run(_stream_and_epochs)
    # window 0 holds rank 1's put; window 1 rank 0's put plus rank 0's
    # accumulate; rank 1 also returns the tail of the second message
    assert res.values == [bytes([2, 2]), bytes([2, 2, 2, 2])]
    # the native window server sleeps on lists of its own
    assert arms[Request] > 0 and (arms[Window] > 0) == (stack != "native")
    assert max(stale.values()) <= 1, stale


@pytest.mark.parametrize("kind", ["request", "counter"])
def test_a_source_that_keeps_losing_holds_one_trigger(kind):
    env = Environment()
    src = Sources(env, [kind, "list"])
    lengths = []

    def sleeper():
        for _ in range(20):
            yield env.park(src.arm(0), src.arm(1))
            lengths.append(len(src.objs[0]._waiters))

    def firer():
        for _ in range(20):
            yield env.timeout(1.0)
            src.fire(1)  # the list wins every race

    env.process(sleeper())
    env.process(firer())
    env.run()
    # each park drops the trigger the list fired last time
    assert lengths == [1] * 20
