"""LAPI_Put / Get / Rmw / Fence / Gfence / Qenv / Senv / counters —
the rest of the paper's Table 1 surface."""

import pytest

from repro.lapi import Lapi, LapiError
from repro.lapi.counters import Counter
from tests.lapi.conftest import LapiRig


class Variable:
    """A remotely-RMW-able scalar (LAPI_Rmw target)."""

    def __init__(self, value=0):
        self.value = value


def spin_dispatch(rig, task, pred, step=5.0, limit=1e6):
    """Drive a task's dispatcher until pred() holds."""

    def proc():
        while not pred() and rig.env.now < limit:
            yield from task.dispatch("user")
            yield rig.env.timeout(step)

    return proc()


def test_put_writes_remote_buffer_and_counts():
    rig = LapiRig(2)
    t0, t1 = rig.tasks
    remote = bytearray(64)
    t1.address_init("rbuf", remote)
    tgt_id, tgt_cntr = t1.create_counter()
    org = Counter(rig.env, "org")

    def sender():
        yield from t0.put("user", 1, "rbuf", 8, b"ONESIDED", tgt_cntr_id=tgt_id,
                          org_cntr=org)
        yield from t0.waitcntr("user", org, 1)

    def receiver():
        yield from t1.waitcntr("user", tgt_cntr, 1)

    rig.run(sender(), receiver())
    assert bytes(remote[8:16]) == b"ONESIDED"
    assert bytes(remote[:8]) == b"\x00" * 8


def test_put_ping_pong_raw_lapi_benchmark_shape():
    """The paper's Fig 10 RAW-LAPI measurement loop: Put + Waitcntr."""
    rig = LapiRig(2)
    t0, t1 = rig.tasks
    bufs = [bytearray(1024), bytearray(1024)]
    for t, b in zip(rig.tasks, bufs):
        t.address_init("pp", b)
    ids = [t.create_counter() for t in rig.tasks]
    done = {}

    def side(me, peer, reps=4):
        task = rig.tasks[me]
        my_id, my_cntr = ids[me]
        peer_id = ids[peer][0]
        for _ in range(reps):
            if me == 0:
                yield from task.put("user", peer, "pp", 0, b"z" * 64,
                                    tgt_cntr_id=peer_id)
                yield from task.waitcntr("user", my_cntr, 1)
            else:
                yield from task.waitcntr("user", my_cntr, 1)
                yield from task.put("user", peer, "pp", 0, b"z" * 64,
                                    tgt_cntr_id=peer_id)
        done[me] = rig.env.now

    rig.run(side(0, 1), side(1, 0))
    assert 0 in done and 1 in done
    rtt = done[0] / 4
    assert 10 < rtt < 500, f"implausible raw-LAPI round trip {rtt} us"


def test_get_reads_remote_buffer():
    rig = LapiRig(2)
    t0, t1 = rig.tasks
    remote = bytearray(b"ABCDEFGHIJKLMNOP")
    t1.address_init("src", remote)
    local = bytearray(4)
    org = Counter(rig.env, "org")
    got = {}

    def origin():
        yield from t0.get("user", 1, "src", 4, 4, local, org_cntr=org)
        yield from t0.waitcntr("user", org, 1)
        got["data"] = bytes(local)

    rig.run(origin(), spin_dispatch(rig, t1, lambda: "data" in got))
    assert got["data"] == b"EFGH"


@pytest.mark.parametrize(
    "op,val,cmp,start,expect_var,expect_prev",
    [
        ("FETCH_AND_ADD", 5, None, 10, 15, 10),
        ("FETCH_AND_OR", 0b0101, None, 0b0011, 0b0111, 0b0011),
        ("SWAP", 99, None, 7, 99, 7),
        ("COMPARE_AND_SWAP", 42, 7, 7, 42, 7),
        ("COMPARE_AND_SWAP", 42, 8, 7, 7, 7),
    ],
)
def test_rmw_operations(op, val, cmp, start, expect_var, expect_prev):
    rig = LapiRig(2)
    t0, t1 = rig.tasks
    var = Variable(start)
    t1.address_init("v", var)
    prev_cntr = Counter(rig.env, "prev")
    result = {}

    def origin():
        rid = yield from t0.rmw("user", 1, "v", op, val, prev_cntr=prev_cntr,
                                compare_value=cmp)
        yield from t0.waitcntr("user", prev_cntr, 1)
        result["rid"] = rid

    rig.run(origin(), spin_dispatch(rig, t1, lambda: "rid" in result))
    done, prev = t0.rmw_result(result["rid"])
    assert done
    assert prev == expect_prev
    assert var.value == expect_var


def test_rmw_unknown_op_rejected():
    rig = LapiRig(2)

    def proc():
        yield from rig.tasks[0].rmw("user", 1, "v", "NONSENSE", 1)

    with pytest.raises(LapiError):
        rig.run(proc())


def test_fence_waits_for_delivery():
    rig = LapiRig(2)
    t0, t1 = rig.tasks
    remote = bytearray(16)
    t1.address_init("r", remote)
    fence_done = {}

    def origin():
        for i in range(4):
            yield from t0.put("user", 1, "r", 0, bytes([i]) * 8)
        yield from t0.fence("user")
        fence_done["t"] = rig.env.now

    rig.run(origin(), spin_dispatch(rig, t1, lambda: "t" in fence_done))
    assert "t" in fence_done
    # after fence, all puts are delivered: buffer holds the last one
    assert bytes(remote[:8]) == bytes([3]) * 8


@pytest.mark.parametrize("enhanced", [False, True])
@pytest.mark.parametrize("size", [8, 1500, 5000])
@pytest.mark.parametrize("n_puts", [1, 4, 9])
def test_fence_returns_when_other_pollers_take_the_acks(n_puts, size, enhanced):
    """Two pollers on the origin pop the acks, so the fence parks and no
    packet ever arrives to wake it: the ack that quiesces the flows
    must wake the fence itself."""
    rig = LapiRig(2, enhanced=enhanced)
    t0, t1 = rig.tasks
    remote = bytearray(n_puts * size)
    t1.address_init("r", remote)
    fence_done = {}

    def poller(task):
        while True:
            yield from task.dispatch("user")
            yield task.hal.wait_rx()

    def origin():
        for i in range(n_puts):
            yield from t0.put("user", 1, "r", i * size, bytes([i]) * size)
        yield from t0.fence("user")
        fence_done["t"] = rig.env.now

    rig.run(origin(), poller(t0), poller(t0), poller(t1), until=1e6)
    assert "t" in fence_done
    # every put is delivered (in any order: LAPI does not order messages)
    assert bytes(remote) == b"".join(bytes([i]) * size for i in range(n_puts))


def test_gfence_synchronises_three_tasks():
    rig = LapiRig(3)
    order = []

    def task_proc(i):
        t = rig.tasks[i]
        yield rig.env.timeout(i * 50.0)  # stagger arrivals
        yield from t.gfence("user")
        order.append((i, rig.env.now))

    rig.run(*[task_proc(i) for i in range(3)])
    assert len(order) == 3
    times = [t for _, t in order]
    # nobody leaves before the last task arrived (t=100)
    assert min(times) >= 100.0


def test_qenv_values():
    rig = LapiRig(4, enhanced=True)
    t2 = rig.tasks[2]
    assert t2.qenv("TASK_ID") == 2
    assert t2.qenv("NUM_TASKS") == 4
    assert t2.qenv("ENHANCED") is True
    assert t2.qenv("INTERRUPT_SET") is False
    assert t2.qenv("MAX_UHDR_SZ") > 0
    with pytest.raises(LapiError):
        t2.qenv("BOGUS")


def test_senv_interrupt_mode_enables_isr_progress():
    """With interrupts on, a target that never polls still completes."""
    rig = LapiRig(2)
    t0, t1 = rig.tasks
    remote = bytearray(32)
    t1.address_init("r", remote)
    t1.senv("INTERRUPT_SET", True)
    tgt_id, tgt_cntr = t1.create_counter()

    def sender():
        yield from t0.put("user", 1, "r", 0, b"VIAIRQ!!", tgt_cntr_id=tgt_id)

    rig.run(sender())
    assert bytes(remote[:8]) == b"VIAIRQ!!"
    assert tgt_cntr.value == 1
    assert rig.stats[1].interrupts >= 1
    with pytest.raises(LapiError):
        t1.senv("BOGUS", 1)


def test_setcntr_getcntr_waitcntr_decrement():
    rig = LapiRig(2)
    t0 = rig.tasks[0]
    c = Counter(rig.env, "c")
    t0.setcntr(c, 5)
    assert t0.getcntr(c) == 5

    def proc():
        yield from t0.waitcntr("user", c, 3)

    rig.run(proc())
    assert c.value == 2


def test_counter_sub_underflow_rejected():
    rig = LapiRig(2)
    c = Counter(rig.env, "c", initial=1)
    with pytest.raises(ValueError):
        c.sub(2)


def test_unknown_address_raises_at_target():
    rig = LapiRig(2)
    t0, t1 = rig.tasks

    def sender():
        yield from t0.put("user", 1, "ghost", 0, b"x")

    def receiver():
        _id, c = t1.create_counter()
        yield from t1.waitcntr("user", c, 1)

    with pytest.raises(LapiError, match="unknown address"):
        rig.run(sender(), receiver())
