"""Unit tests for Mutex / Store."""

import pytest

from repro.sim import Environment, Mutex, SimulationError, Store


# ---------------------------------------------------------------- Mutex


def test_mutex_exclusion_and_fifo_order():
    env = Environment()
    mx = Mutex(env)
    log = []

    def worker(tag, hold):
        yield mx.acquire()
        log.append(("in", tag, env.now))
        yield env.timeout(hold)
        log.append(("out", tag, env.now))
        mx.release()

    env.process(worker("a", 5.0))
    env.process(worker("b", 3.0))
    env.process(worker("c", 1.0))
    env.run()
    assert log == [
        ("in", "a", 0.0),
        ("out", "a", 5.0),
        ("in", "b", 5.0),
        ("out", "b", 8.0),
        ("in", "c", 8.0),
        ("out", "c", 9.0),
    ]
    assert not mx.locked
    assert mx.acquisitions == 3


def test_mutex_try_acquire():
    env = Environment()
    mx = Mutex(env)
    assert mx.try_acquire()
    assert not mx.try_acquire()
    mx.release()
    assert mx.try_acquire()


def test_mutex_release_unlocked_raises():
    env = Environment()
    mx = Mutex(env)
    with pytest.raises(SimulationError):
        mx.release()


# ---------------------------------------------------------------- Store


def test_store_put_then_get():
    env = Environment()
    st = Store(env)
    st.put("x")
    got = []

    def getter():
        got.append((yield st.get()))

    env.process(getter())
    env.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    env = Environment()
    st = Store(env)
    got = []

    def getter():
        v = yield st.get()
        got.append((env.now, v))

    def putter():
        yield env.timeout(4.0)
        st.put("late")

    env.process(getter())
    env.process(putter())
    env.run()
    assert got == [(4.0, "late")]


def test_store_fifo_order_items_and_getters():
    env = Environment()
    st = Store(env)
    got = []

    def getter(tag):
        v = yield st.get()
        got.append((tag, v))

    env.process(getter("g1"))
    env.process(getter("g2"))

    def putter():
        yield env.timeout(1.0)
        st.put(1)
        st.put(2)

    env.process(putter())
    env.run()
    assert got == [("g1", 1), ("g2", 2)]


def test_store_try_get():
    env = Environment()
    st = Store(env)
    assert st.try_get() == (False, None)
    st.put(7)
    assert st.try_get() == (True, 7)
    assert len(st) == 0
