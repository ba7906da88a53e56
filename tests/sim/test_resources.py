"""Unit tests for Store."""

from repro.sim import Environment, Store


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
