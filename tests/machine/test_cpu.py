"""Unit tests for the CPU scheduler and its switch accounting."""

import pytest

from repro.machine import Cpu, MachineParams, NodeStats
from repro.sim import Environment


def make_cpu(**overrides):
    env = Environment()
    params = MachineParams(**overrides)
    stats = NodeStats()
    return env, Cpu(env, params, stats), stats


def test_single_thread_no_switch_cost():
    env, cpu, stats = make_cpu(ctx_switch_us=100.0)

    def proc():
        yield from cpu.execute("user", 5.0)
        yield from cpu.execute("user", 5.0)

    p = env.process(proc())
    env.run(until=p)
    assert env.now == pytest.approx(10.0)
    assert stats.ctx_switches == 0


def test_thread_change_charges_ctx_switch():
    env, cpu, stats = make_cpu(ctx_switch_us=24.0)

    def proc():
        yield from cpu.execute("user", 1.0)
        yield from cpu.execute("cmpl", 1.0)
        yield from cpu.execute("user", 1.0)

    p = env.process(proc())
    env.run(until=p)
    # first execute: no previous thread; then two switches
    assert env.now == pytest.approx(3.0 + 2 * 24.0)
    assert stats.ctx_switches == 2


def test_interrupt_charges_overhead_not_switch():
    env, cpu, stats = make_cpu(ctx_switch_us=50.0, interrupt_overhead_us=7.0)

    def proc():
        yield from cpu.execute("user", 1.0)
        yield from cpu.execute("irq0", 2.0)
        yield from cpu.execute("user", 1.0)

    p = env.process(proc())
    env.run(until=p)
    # 1 + (7 + 2) + 1 : the return to the preempted thread is free
    assert env.now == pytest.approx(11.0)
    assert stats.ctx_switches == 0
    assert stats.interrupts == 1


def test_consecutive_irq_sections_charged_once():
    env, cpu, stats = make_cpu(interrupt_overhead_us=9.0)

    def proc():
        yield from cpu.execute("irq0", 1.0)
        yield from cpu.execute("irq0", 1.0)

    p = env.process(proc())
    env.run(until=p)
    assert stats.interrupts == 1
    assert env.now == pytest.approx(9.0 + 2.0)


def test_mutual_exclusion_serialises_contexts():
    env, cpu, stats = make_cpu(ctx_switch_us=0.0)
    order = []

    def worker(tag, cost):
        yield from cpu.execute(tag, cost)
        order.append((tag, env.now))

    env.process(worker("a", 10.0))
    env.process(worker("b", 5.0))
    env.run()
    assert order == [("a", 10.0), ("b", 15.0)]


def test_memcpy_records_stats_and_charges_time():
    env, cpu, stats = make_cpu(copy_bandwidth_MBps=100.0, copy_setup_us=0.0)

    def proc():
        yield from cpu.memcpy("user", 1000)

    p = env.process(proc())
    env.run(until=p)
    assert stats.copies == 1
    assert stats.bytes_copied == 1000
    assert env.now == pytest.approx(10.0)


def test_busy_time_accumulates():
    env, cpu, stats = make_cpu(ctx_switch_us=0.0)

    def proc():
        yield from cpu.execute("user", 3.0)
        yield env.timeout(100.0)  # idle
        yield from cpu.execute("user", 4.0)

    p = env.process(proc())
    env.run(until=p)
    assert cpu.busy_us == pytest.approx(7.0)


def test_zero_cost_execute_is_legal():
    env, cpu, stats = make_cpu()

    def proc():
        yield from cpu.execute("user", 0.0)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 0.0


# ------------------------------------------------- interrupted waiters
def _queued_then_interrupted(grant_first):
    """a holds the only core for 5 us, b queues behind it and is
    interrupted, c queues behind b.  ``grant_first`` interrupts b just
    after a's release granted it the core, before b could resume."""
    from repro.sim import Interrupt

    env, cpu, stats = make_cpu(ctx_switch_us=0.0)
    log = []
    procs = {}

    def a():
        yield from cpu.execute("a", 5.0)
        if grant_first:
            procs["b"].interrupt("late")

    def b():
        try:
            yield from cpu.execute("b", 1.0)
        except Interrupt:
            log.append(("b interrupted", env.now))
            return
        log.append(("b ran", env.now))

    def c():
        yield from cpu.execute("c", 2.0)
        log.append(("c ran", env.now))

    def interrupter():
        yield env.timeout(1.0)
        procs["b"].interrupt("early")

    env.process(a())
    procs["b"] = env.process(b())
    env.process(c())
    if not grant_first:
        env.process(interrupter())
    env.run()
    return cpu, log


@pytest.mark.parametrize("grant_first", [False, True],
                         ids=["while-queued", "after-grant"])
def test_interrupted_waiter_does_not_keep_the_core(grant_first):
    cpu, log = _queued_then_interrupted(grant_first)
    when = 5.0 if grant_first else 1.0
    assert log == [("b interrupted", when), ("c ran", 7.0)]
    core = cpu._cores[0]
    assert not core.busy and core.running is None
    assert not cpu._waiters
