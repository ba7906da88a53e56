"""Per-node CPU(s) with thread-switch accounting.

A node's software contexts (the user/MPI thread, the LAPI completion-
handler thread, interrupt handlers) share the node's core(s).  Every
timed software action runs inside :meth:`Cpu.execute`, which

1. acquires a core (preferring the core the thread last ran on),
2. charges a context-switch penalty if that core was last running a
   *different* thread (the paper's §5 effect),
3. advances simulated time by the service cost, and
4. releases the core.

Interrupt contexts are special-cased: entering one charges the
interrupt overhead instead of a thread context switch, and the
interrupted thread resumes without a switch charge (the hardware did
the save/restore, folded into ``interrupt_overhead_us``).

Uniprocessor SP nodes use ``cores=1`` (the default); the TBMX systems
in the paper were 4-way SMPs, which ``MachineParams.cpus_per_node``
models — on an SMP the completion-handler thread can run on its own
core, which is exactly why the Base variant hurts less there (see
``benchmarks/bench_ablation_smp.py``).

Scheduling is non-preemptive per core and FIFO-fair across waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.sim import Environment, Event

#: thread-name prefix that marks an interrupt context
INTERRUPT_CONTEXT = "irq"

__all__ = ["Cpu", "INTERRUPT_CONTEXT"]


class _Core:
    __slots__ = ("index", "busy", "running", "last_thread", "preempted_thread")

    def __init__(self, index: int):
        self.index = index
        self.busy = False
        self.running: Optional[str] = None
        self.last_thread: Optional[str] = None
        self.preempted_thread: Optional[str] = None


class Cpu:
    """The processor(s) shared by one node's software contexts."""

    def __init__(
        self,
        env: Environment,
        params: MachineParams,
        stats: NodeStats,
        name: str = "cpu",
        cores: int = 1,
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        self.env = env
        self.params = params
        self.stats = stats
        self.name = name
        self._cores = [_Core(i) for i in range(cores)]
        #: the only core of a uniprocessor node (``execute``'s fast path)
        self._uni_core = self._cores[0] if cores == 1 else None
        #: ``(event, thread)`` per process queued for a core, FIFO
        self._waiters: deque[tuple[Event, str]] = deque()
        #: cumulative busy time across cores (utilisation statistic)
        self.busy_us: float = 0.0
        #: fault hook (:class:`repro.faults.FaultPoint`) for node-slowdown
        #: events; installed by the cluster, ``None`` otherwise
        self.faults = None
        # the registry counters behind the NodeStats facade, held directly
        reg = stats.registry
        self._c_copies = reg.counter("copies")
        self._c_bytes_copied = reg.counter("bytes_copied")
        self._c_interrupts = reg.counter("interrupts")
        self._c_ctx_switches = reg.counter("ctx_switches")

    @property
    def cores(self) -> int:
        return len(self._cores)

    # ------------------------------------------------------------------
    def execute(self, thread: str, cost_us: float) -> Generator:
        """Run ``cost_us`` of work attributed to ``thread``.

        Generator: ``yield from cpu.execute("user", 1.5)``.
        """
        core = self._uni_core
        if (core is not None and not core.busy and not self._waiters
                and self.faults is None):
            # Uniprocessor fast path: the single core is free and nobody
            # waits, so take it inline.  Same charges, same order as the
            # general path below, minus its calls and list scans.
            core.busy = True
            core.running = thread
            if core.last_thread == thread:
                switch = 0.0  # what _switch_penalty returns for a rerun
            else:
                switch = self._switch_penalty(core, thread)
            total = switch + cost_us if cost_us > 0.0 else switch
            try:
                # when nothing else could run before the charge ends, the
                # kernel lets the time pass inline instead of a queued wait
                if total > 0.0 and not self.env.advance(total):
                    yield self.env.auto_timeout(total)
                self.busy_us += total
            finally:
                core.last_thread = thread
                if self._waiters:
                    self._release(core)
                else:
                    core.busy = False
                    core.running = None
            return

        core = self._try_acquire(thread)
        if core is None:
            ev = self.env.auto_event()
            waiter = (ev, thread)
            self._waiters.append(waiter)
            try:
                core = yield ev  # hand-off: the releaser granted us this core
            except BaseException:
                # interrupted while queued: leave the queue, or pass on
                # the core a releaser already granted us
                if ev.triggered:
                    self._release(ev._value)
                else:
                    self._waiters.remove(waiter)
                raise
        try:
            switch = self._switch_penalty(core, thread)
            if self.faults is not None:
                cost_us = cost_us * self.faults.slowdown(self.env.now)
            total = switch + max(0.0, cost_us)
            if total > 0.0 and not self.env.advance(total):
                yield self.env.auto_timeout(total)
            self.busy_us += total
        finally:
            core.last_thread = thread
            self._release(core)

    def memcpy(self, thread: str, nbytes: int) -> Generator:
        """Charge a host memory copy of ``nbytes`` and record it."""
        self._c_copies.value += 1
        self._c_bytes_copied.value += nbytes
        yield from self.execute(thread, self.params.copy_cost(nbytes))

    # ------------------------------------------------------------------
    def _try_acquire(self, thread: str) -> Optional[_Core]:
        if len(self._cores) == 1:
            # Uniprocessor fast path (the paper's SP nodes, and by far the
            # common configuration): a busy core blocks everyone, a free
            # core with waiters means the waiters go first (none of them
            # can be blocked by a same-name conflict when nothing runs).
            core = self._cores[0]
            if core.busy or self._waiters:
                return None
            core.busy = True
            core.running = thread
            return core
        # FIFO fairness: newcomers queue behind *eligible* waiters (this
        # is what prevents a polling loop from starving handler contexts;
        # waiters blocked only by a same-name conflict don't block others)
        if self._waiters:
            running_now = {c.running for c in self._cores if c.busy}
            if any(t not in running_now for _ev, t in self._waiters):
                return None
        # one OS thread cannot occupy two cores: same-named sections
        # (e.g. the user program and LAPI engine work attributed to the
        # user thread) serialise
        if any(c.busy and c.running == thread for c in self._cores):
            return None
        free = [c for c in self._cores if not c.busy]
        if not free:
            return None
        # affinity first (no switch), then a never-used core, then any
        chosen = None
        for c in free:
            if c.last_thread == thread:
                chosen = c
                break
        if chosen is None:
            for c in free:
                if c.last_thread is None:
                    chosen = c
                    break
        if chosen is None:
            chosen = free[0]
        chosen.busy = True
        chosen.running = thread
        return chosen

    def _release(self, core: _Core) -> None:
        core.busy = False
        core.running = None
        if not self._waiters:
            return
        # hand the core to the first waiter whose thread is not already
        # running elsewhere (FIFO among the eligible)
        running_now = {c.running for c in self._cores if c.busy}
        for i, (ev, thread) in enumerate(self._waiters):
            if thread not in running_now:
                del self._waiters[i]
                core.busy = True
                core.running = thread
                ev.succeed(core)
                return

    def _switch_penalty(self, core: _Core, thread: str) -> float:
        """Penalty for running ``thread`` on ``core`` next."""
        if thread.startswith(INTERRUPT_CONTEXT):
            if core.last_thread == thread:
                # Same interrupt context continuing; entry already charged.
                return 0.0
            if core.last_thread is not None and not core.last_thread.startswith(
                INTERRUPT_CONTEXT
            ):
                core.preempted_thread = core.last_thread
            self._c_interrupts.value += 1
            return self.params.interrupt_overhead_us

        if core.last_thread == thread:
            return 0.0
        if core.preempted_thread == thread:
            # Returning from interrupt to the thread it preempted: the
            # restore cost is part of interrupt_overhead_us.
            core.preempted_thread = None
            return 0.0
        if core.last_thread is None:
            return 0.0
        self._c_ctx_switches.value += 1
        if self.stats.tracer is not None:
            self.stats.trace("cpu", "ctx_switch", to=thread, frm=core.last_thread,
                             cost_us=self.params.ctx_switch_us)
        return self.params.ctx_switch_us
