"""The uniprocessor ``Cpu.execute`` fast path charges exactly what the
general path charges.

With one core, a free core, no waiters and no fault hook, ``execute``
takes the core inline.  Installing a fault hook that never slows anything
down forces every call through the general path, so running the same
random schedule both ways must give identical completion times,
``busy_us``, context switches and interrupts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import Cpu, MachineParams, NodeStats
from repro.sim import Environment

THREADS = ("user", "lapi-cmpl", "irq", "irq-hal")
COSTS = (0.0, 0.0, 0.25, 1.0, 2.5, 7.0)
GAPS = (0.0, 0.0, 0.5, 1.0, 30.0)


class _NoSlowdown:
    """A fault hook that is installed but never slows anything down."""

    def slowdown(self, now: float) -> float:
        return 1.0


class _CountingCpu(Cpu):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.general_calls = 0

    def _try_acquire(self, thread):
        self.general_calls += 1
        return super()._try_acquire(thread)


def simulate(plan, faults):
    env = Environment()
    stats = NodeStats()
    cpu = _CountingCpu(env, MachineParams(), stats, cores=1)
    cpu.faults = faults
    done = []

    def body(i, steps):
        for thread, cost, gap in steps:
            if gap:
                yield env.timeout(gap)
            yield from cpu.execute(thread, cost)
            done.append((i, thread, env.now))

    for i, steps in enumerate(plan):
        env.process(body(i, steps))
    env.run()
    outcome = (done, cpu.busy_us, stats.ctx_switches, stats.interrupts)
    return outcome, cpu.general_calls


step = st.tuples(st.sampled_from(THREADS), st.sampled_from(COSTS),
                 st.sampled_from(GAPS))
plans = st.lists(st.lists(step, min_size=1, max_size=6), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(plan=plans)
def test_fast_path_matches_general_path(plan):
    fast, fast_general_calls = simulate(plan, faults=None)
    slow, slow_general_calls = simulate(plan, faults=_NoSlowdown())
    assert fast == slow
    executes = sum(len(steps) for steps in plan)
    assert slow_general_calls == executes
    # the first execute always finds the core free: the fast path ran
    assert fast_general_calls < executes


def test_fast_path_charges_switch_and_interrupt_entry():
    params = MachineParams()
    plan = [[("user", 1.0, 0.0), ("irq", 1.0, 0.0), ("user", 1.0, 0.0),
             ("lapi-cmpl", 1.0, 0.0), ("user", 1.0, 0.0)]]
    (done, busy, switches, interrupts), general_calls = simulate(plan, None)
    assert general_calls == 0
    # irq entry, the free return to the preempted thread, then two switches
    assert interrupts == 1
    assert switches == 2
    assert busy == 5.0 + params.interrupt_overhead_us + 2 * params.ctx_switch_us
    assert done[-1][2] == busy
