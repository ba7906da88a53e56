"""Request/Status lifecycle unit tests."""

import pytest

from repro.mpi.request import Request, Status
from repro.sim import Environment


def test_status_get_count():
    s = Status(source=1, tag=2, count=24)
    assert s.get_count() == 24
    assert s.get_count(8) == 3
    with pytest.raises(ValueError):
        s.get_count(0)


def test_request_completion_sets_status_and_fires_waiters():
    env = Environment()
    req = Request(env, "recv")
    fired = []

    def waiter():
        ev = env.event()
        req.arm(ev)
        yield ev
        fired.append(env.now)

    env.process(waiter())
    req.complete(source=3, tag=9, count=100)
    env.run()
    assert req.done
    assert (req.status.source, req.status.tag, req.status.count) == (3, 9, 100)
    assert fired == [0.0]


def test_double_complete_rejected():
    env = Environment()
    req = Request(env, "send")
    req.complete()
    with pytest.raises(RuntimeError, match="twice"):
        req.complete()


def test_changed_after_done_fires_immediately():
    env = Environment()
    req = Request(env, "send")
    req.complete()
    ev = env.event()
    req.arm(ev)
    assert ev.triggered
    req.arm(ev)  # armed again once fired: left alone, no double trigger
    assert req._waiters == []


def test_finalizer_flow():
    env = Environment()
    req = Request(env, "recv")
    ran = []

    def fin(thread):
        ran.append(thread)
        req.complete(count=5)
        yield env.timeout(0)

    req.set_finalizer(fin)
    assert req.needs_finalize
    assert not req.done

    def proc():
        yield from req.run_finalizer("user")

    env.process(proc())
    env.run()
    assert ran == ["user"]
    assert req.done
    assert not req.needs_finalize


def test_finalizer_must_complete_request():
    env = Environment()
    req = Request(env, "recv")

    def bad_fin(thread):
        yield env.timeout(0)

    req.set_finalizer(bad_fin)

    def proc():
        yield from req.run_finalizer("user")

    env.process(proc())
    with pytest.raises(RuntimeError, match="did not complete"):
        env.run()
