"""Core discrete-event machinery: environment, events, processes.

Design notes
------------
* The pending-event set keeps the exact ``(time, priority, seq)`` order
  of a single binary heap, but is split three ways for speed:

  - a binary heap of ``(time, priority, seq, event)`` tuples for events
    scheduled with ``delay > 0``;
  - two FIFO deques (urgent / normal) for ``delay == 0`` events.

  Delay-0 entries are stamped with the current instant and the clock can
  never advance past them (the pop always takes the global tuple-minimum
  of the heap top and the two deque fronts), so deque entries stay in
  heap order by construction: ``seq`` is a global monotone counter and
  FIFO append preserves it.  The overwhelmingly common "fires right now"
  schedule is an O(1) append instead of an O(log n) heap push, with a
  byte-identical event trajectory.
* Processes are plain Python generators that ``yield`` events.  When the
  yielded event triggers, the process is resumed with the event's value
  (or the event's exception is thrown into it).
* An event may be triggered at most once.  Triggering schedules its
  callbacks; callbacks run when the event is popped from the queue.
* Kernel-internal fire-and-forget events (:meth:`Environment.call_later`,
  :meth:`Environment.auto_timeout`, :meth:`Environment.auto_event`) come
  from a per-environment free list and are recycled as soon as their
  callbacks have run.  They must be yielded (or given their callback)
  immediately and never retained once processed — see
  ``docs/PERFORMANCE.md`` for the retention rules.
* :meth:`Environment.advance` fast-forwards a timeout that would
  provably be the very next pop: the clock moves inline and the waiting
  generator chain never unwinds.  It is counted exactly like the
  queued timeout it replaces, so every trajectory and ``sim.*`` count
  is unchanged.
* :meth:`Environment.park` is the sleep on several wake sources: they
  all hold one trigger event, so the sources that lose the race queue
  nothing, where an ``AnyOf`` over fresh events popped every loser.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "live_waiters",
]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double trigger, etc.)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why the process was
    interrupted (e.g. a packet-arrival notification for a polling loop).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Priorities: lower value pops first among events at the same timestamp.
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot event.

    States: *pending* (created), *triggered* (value/exception set and the
    event is on the queue), *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    #: pooled kernel-internal events override this; the run loop recycles
    #: them right after their callbacks fire
    _auto = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: a failed event whose exception was delivered to (or absorbed by)
        #: someone is "defused"; undefused failures crash the run.
        self._defused = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("value not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        seq = env._seq = env._seq + 1
        if priority:
            env._normal.append((env._now, priority, seq, self))
        else:
            env._urgent.append((env._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        env = self.env
        seq = env._seq = env._seq + 1
        if priority:
            env._normal.append((env._now, priority, seq, self))
        else:
            env._urgent.append((env._now, priority, seq, self))
        return self

    # -- callback plumbing -------------------------------------------------
    def _add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run at the current instant via a proxy.
            proxy = Event(self.env)
            proxy._value, proxy._ok = self._value, self._ok
            proxy.callbacks.append(fn)
            proxy._triggered = True
            self.env._enqueue(proxy, 0.0, URGENT)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """Event that fires ``delay`` time units after creation; build it
    with :meth:`Environment.timeout`."""

    __slots__ = ("delay",)


class _AutoEvent(Event):
    """Kernel-internal pooled event.

    Grabbed from :attr:`Environment._free` by ``call_later`` /
    ``auto_timeout`` / ``auto_event`` and recycled by the run loop right
    after its callbacks fire.  References must never outlive processing.
    """

    __slots__ = ()

    _auto = True


class Initialize(Event):
    """Internal: starts a freshly created process at the current instant."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._cb)
        self._triggered = True
        env._enqueue(self, 0.0, URGENT)


class Process(Event):
    """Wraps a generator; is itself an event that fires on return.

    The generator yields :class:`Event` instances.  The process resumes
    with ``event.value`` when the event succeeds, or has the exception
    thrown in when the event fails.
    """

    __slots__ = ("_gen", "_target", "_cb", "name")

    def __init__(self, env: "Environment", gen: Generator[Event, Any, Any], name: str = ""):
        if not hasattr(gen, "throw"):
            raise TypeError(f"{gen!r} is not a generator")
        super().__init__(env)
        self._gen = gen
        self._target: Optional[Event] = None
        # one bound method for the process's whole life, instead of a fresh
        # allocation on every yield
        self._cb = self._resume
        self.name = name or getattr(gen, "__name__", "process")
        env._procs += 1
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        env = self.env
        if env._active_proc is not self:
            env._switches += 1
        env._active_proc = self
        while True:
            if event._ok:
                try:
                    next_ev = self._gen.send(event._value)
                except StopIteration as exc:
                    self._finish(env, True, exc.value)
                    break
                except BaseException as exc:
                    self._finish(env, False, exc)
                    break
            else:
                # Deliver the failure into the generator.
                event._defused = True
                try:
                    next_ev = self._gen.throw(event._value)
                except StopIteration as exc:
                    self._finish(env, True, exc.value)
                    break
                except BaseException as exc:
                    self._finish(env, False, exc)
                    break

            if not isinstance(next_ev, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_ev!r}"
                )
                event = Event(env)
                event._triggered = True
                event._ok = False
                event._value = exc
                continue
            if next_ev._processed:
                # Already done: loop immediately with its outcome.
                event = next_ev
                if not next_ev._ok:
                    next_ev._defused = True
                continue
            self._target = next_ev
            callbacks = next_ev.callbacks
            if callbacks is None:  # pragma: no cover - _processed caught above
                next_ev._add_callback(self._cb)
            else:
                callbacks.append(self._cb)
            break
        env._active_proc = None

    def _finish(self, env: "Environment", ok: bool, value: Any) -> None:
        self._triggered = True
        self._ok = ok
        self._value = value
        seq = env._seq = env._seq + 1
        env._normal.append((env._now, NORMAL, seq, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class Interruption(Event):
    """Internal: delivers an :class:`Interrupt` to a process, urgently."""

    __slots__ = ("_proc",)

    def __init__(self, process: Process, cause: Any):
        super().__init__(process.env)
        self._proc = process
        self._triggered = True
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(self._deliver)
        process.env._enqueue(self, 0.0, URGENT)

    def _deliver(self, event: Event) -> None:
        proc = self._proc
        if proc._triggered:
            return  # terminated in the meantime; drop silently
        # Detach the process from whatever it was waiting on.
        target = proc._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(proc._cb)
            except ValueError:
                pass
            if (not target.callbacks and not target._triggered
                    and isinstance(target, Condition)):
                # Nobody is left waiting on this condition: detach it from
                # its constituents so they stop accumulating callbacks.
                target._abandon()
        proc._target = None
        proc._resume(self)


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed(self._collect())
            return
        on_event = self._on_event
        for ev in self._events:
            if ev._processed:
                self._on_event(ev)
            else:
                ev._add_callback(on_event)
            if self._triggered:
                # Decided already; _abandon() (called when we triggered)
                # defused the rest, so stop attaching callbacks.
                break

    def _collect(self) -> dict:
        return {
            ev: ev._value for ev in self._events if ev._processed and ev._ok
        }

    def _on_event(self, ev: Event) -> None:
        if self._triggered:
            if not ev._ok:
                ev._defused = True
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            self._abandon()
            return
        self._count += 1
        if self._check():
            self.succeed(self._collect())
            self._abandon()

    def _abandon(self) -> None:
        """Detach from constituents that have not fired yet.

        Losing events would otherwise keep our ``_on_event`` alive for
        their whole lifetime (polling loops leak one callback per
        iteration).  A pruned loser that later *fails* must still not
        crash the run — the attached ``_on_event`` used to defuse it, so
        defuse preemptively, which is observably equivalent.
        """
        on_event = self._on_event
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is not None:
                try:
                    cbs.remove(on_event)
                except ValueError:
                    pass
                ev._defused = True

    def _check(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(Condition):
    """Triggers when any constituent event triggers."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._count >= 1


class AllOf(Condition):
    """Triggers when all constituent events have triggered."""

    __slots__ = ()

    def _check(self) -> bool:
        return self._count >= len(self._events)


def live_waiters(waiters: list[Event]) -> list[Event]:
    """``waiters`` without the events that have fired already.

    A wake source keeps the triggers parked on it in such a list; one
    that another source fired first is inert there (every notifier skips
    a triggered event), so a source drops them when it is armed again
    and its list holds only live sleepers.  The order is kept.
    """
    return [ev for ev in waiters if not ev._triggered] if waiters else waiters


class Environment:
    """Simulation environment: clock plus the event queue.

    Pass a :class:`repro.obs.MetricsRegistry` as ``metrics`` to collect
    event-loop statistics (events popped, heap-depth high water, process
    switches, processes started).  All stats are counts of simulation
    activity, never wall clock, so they are deterministic.

    The kernel counts in plain ints and writes them into the registry's
    ``sim.*`` metrics (which this environment owns) whenever :meth:`run`
    or :meth:`step` returns or raises; a snapshot taken from inside a
    running callback sees the values of the previous flush.
    """

    def __init__(self, initial_time: float = 0.0, metrics=None):
        self._now = float(initial_time)
        #: delay > 0 events, a real heap
        self._queue: list[tuple[float, int, int, Event]] = []
        #: delay == 0 events, FIFO per priority, always at the current instant
        self._urgent: deque[tuple[float, int, int, Event]] = deque()
        self._normal: deque[tuple[float, int, int, Event]] = deque()
        self._seq = 0
        #: recycled kernel-internal events (call_later / auto_timeout / auto_event)
        self._free: list[_AutoEvent] = []
        self._active_proc: Optional[Process] = None
        # Kernel statistics.  Every enqueue bumps ``_seq`` and only pops
        # drain the queue, so the pending-event count is always
        # ``_seq - _popped``; it can only grow between pops, so sampling
        # it whenever ``_seq`` moved since ``_seq_seen`` (after each
        # event's callbacks, and on entry to run/step) yields the exact
        # value-at-last-enqueue and high-water mark.
        self._popped = 0
        self._switches = 0
        self._procs = 0
        self._seq_seen = 0
        self._depth = 0
        self._depth_max = 0
        # Fast-forward state (see advance()): ``_solo`` is set while run()
        # executes the only callback of the event it popped (run() keeps
        # it set between pops, which run no callbacks), ``_until`` is
        # that run()'s time bound, and ``_ff`` counts the fast-forwarded
        # pops that run() has not yet folded into its local counters.
        self._solo = False
        self._until = _INF
        self._ff = 0
        self.metrics = metrics
        if metrics is not None:
            self._m_popped = metrics.counter("sim.events_popped")
            self._m_heap = metrics.gauge("sim.heap_depth")
            self._m_switches = metrics.counter("sim.process_switches")
            self._m_procs = metrics.counter("sim.processes_started")

    @property
    def now(self) -> float:
        """Current simulated time (microseconds by convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- factories ---------------------------------------------------------
    # The two hottest factories build their objects inline (one frame,
    # no type.__call__ dispatch); keep ``event`` in sync with
    # Event.__init__.  ``timeout`` is the only way a Timeout is built.
    def event(self) -> Event:
        ev = Event.__new__(Event)
        ev.env = self
        ev.callbacks = []
        ev._value = None
        ev._ok = True
        ev._triggered = False
        ev._processed = False
        ev._defused = False
        return ev

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        ev = Timeout.__new__(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._processed = False
        ev._defused = False
        ev.delay = delay
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            self._normal.append((self._now, NORMAL, seq, ev))
        else:
            _heappush(self._queue, (self._now + delay, NORMAL, seq, ev))
        return ev

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        return Process(self, gen, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def park(self, *arms: Callable[[Event], None]) -> Event:
        """Sleep on several wake sources; yield the result at once.

        Every ``arm`` gets the same one-shot trigger event: a source
        whose condition already holds fires it, the others park it in
        their waiter lists, where it stays inert once triggered (each
        notifier skips a triggered event), so the losing sources queue
        nothing.  The trigger's pop relays to the returned event and the
        process resumes on that second pop, at the same instant: the
        hop an ``AnyOf`` takes from its first constituent, which keeps
        same-instant ties in order.  The returned event is pooled
        (:meth:`auto_event`); the process resumes with the trigger.
        """
        wake = self.auto_event()
        trigger = self.event()
        trigger.callbacks.append(wake.succeed)
        for arm in arms:
            arm(trigger)
        return wake

    # -- pooled kernel-internal events -------------------------------------
    def call_later(self, delay: float, fn: Callable[[Event], None],
                   value: Any = None) -> None:
        """Run ``fn(event)`` after ``delay``, on a pooled event.

        For kernel-internal fire-and-forget callbacks (fabric delivery,
        ISR scheduling).  The event is recycled right after ``fn`` runs,
        so ``fn`` must not retain it; ``event._value`` is ``value`` while
        ``fn`` executes.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        free = self._free
        ev = free.pop() if free else _AutoEvent(self)
        ev._triggered = True
        ev._value = value
        ev.callbacks.append(fn)
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            self._normal.append((self._now, NORMAL, seq, ev))
        else:
            _heappush(self._queue, (self._now + delay, NORMAL, seq, ev))

    def auto_timeout(self, delay: float, value: Any = None) -> Event:
        """Pooled :class:`Timeout` for kernel-internal waits.

        Contract: yield it immediately (exactly one waiter) and never
        touch it again after it fires — the run loop recycles it.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        free = self._free
        ev = free.pop() if free else _AutoEvent(self)
        ev._triggered = True
        ev._value = value
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            self._normal.append((self._now, NORMAL, seq, ev))
        else:
            _heappush(self._queue, (self._now + delay, NORMAL, seq, ev))
        return ev

    def auto_event(self) -> Event:
        """Pooled plain event for kernel-internal resource handshakes.

        Contract: the consumer yields it immediately (or drops it before
        it fires) and never reads its state after it has been processed.
        """
        free = self._free
        return free.pop() if free else _AutoEvent(self)

    # -- scheduling ----------------------------------------------------------
    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            if priority:
                self._normal.append((self._now, priority, seq, event))
            else:
                self._urgent.append((self._now, priority, seq, event))
        else:
            _heappush(self._queue, (self._now + delay, priority, seq, event))

    def _pop(self) -> tuple[float, int, int, Event]:
        """Remove and return the globally next schedule entry."""
        u, n, q = self._urgent, self._normal, self._queue
        if u:
            if q and q[0] < u[0]:
                return _heappop(q)
            return u.popleft()
        if n:
            if q and q[0] < n[0]:
                return _heappop(q)
            return n.popleft()
        return _heappop(q)  # IndexError when fully drained, as before

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._urgent or self._normal:
            return self._now  # delay-0 events are always at the current instant
        return self._queue[0][0] if self._queue else _INF

    def advance(self, delay: float) -> bool:
        """Let ``delay`` pass inline if nothing else could run first.

        For the running process only, in place of ``yield
        auto_timeout(delay)``: returns True, with the clock moved on by
        ``delay``, when that timeout would provably be the very next pop.
        That holds when :meth:`run` is executing the only callback of the
        event it popped, nothing is due at the current instant, every
        heap entry lies strictly later (a tie never fast-forwards), and
        the new time does not pass ``run(until=t)``.  The skipped timeout
        is counted as if it had been queued and popped: one ``_seq``,
        one heap-depth sample, one pop and one process switch.  Returns
        False, changing nothing, otherwise; the caller then yields the
        timeout as usual.
        """
        if not self._solo or self._urgent or self._normal:
            return False
        t = self._now + delay
        q = self._queue
        if t > self._until or (q and q[0][0] <= t):
            return False
        self._now = t
        self._seq_seen = self._seq = self._seq + 1
        # the pending count with the timeout queued: the deques are empty
        depth = self._depth = len(q) + 1
        if depth > self._depth_max:
            self._depth_max = depth
        self._ff += 1
        self._switches += 1
        return True

    def _take_ff(self, popped: int, depth_max: int) -> tuple[int, int, int, int]:
        """Fold fast-forwarded pops into run()'s local counters."""
        popped += self._ff
        self._ff = 0
        if self._depth_max > depth_max:
            depth_max = self._depth_max
        return popped, self._seq_seen, self._depth, depth_max

    def _note_depth(self) -> None:
        """Sample the pending-event count if anything was enqueued."""
        seq = self._seq
        if seq != self._seq_seen:
            self._seq_seen = seq
            depth = self._depth = seq - self._popped
            if depth > self._depth_max:
                self._depth_max = depth

    def _flush(self) -> None:
        """Write the kernel statistics into the ``sim.*`` metrics."""
        self._note_depth()
        if self.metrics is not None:
            self._m_popped.value = self._popped
            self._m_switches.value = self._switches
            self._m_procs.value = self._procs
            gauge = self._m_heap
            gauge.value = self._depth
            gauge.high_water = self._depth_max

    def step(self) -> None:
        """Process one event off the queue."""
        self._note_depth()
        try:
            entry = self._pop()
            self._popped += 1
            self._now = entry[0]
            event = entry[3]
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            for cb in callbacks:
                cb(event)
            if event._auto:
                event._processed = False
                event._triggered = False
                event._ok = True
                event._value = None
                event._defused = False
                callbacks.clear()
                event.callbacks = callbacks
                self._free.append(event)
            elif not event._ok and not event._defused:
                raise event._value
        finally:
            self._flush()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the given time or event; return the event's value.

        ``until=None`` runs until the queue drains.
        """
        self._note_depth()
        # the loops keep the statistics in locals; the finally writes
        # them back and flushes them on every exit, raising ones included
        popped = self._popped
        seen = self._seq_seen
        depth = self._depth
        depth_max = self._depth_max
        try:
            stop_at = _INF
            stop_event: Optional[Event] = None
            if isinstance(until, Event):
                stop_event = until
                if stop_event._processed:
                    if not stop_event._ok:
                        raise stop_event._value
                    return stop_event._value
            elif until is not None:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(f"until={stop_at} is in the past (now={self._now})")

            self._until = stop_at

            # The heap/deque structures, the pop logic, and the body of
            # step() are inlined here with bound locals: this loop is the
            # simulator's single hottest path (see benchmarks/bench_simcore.py).
            # ``_solo`` stays set for the whole run and is cleared only
            # around a pop with several callbacks, so a lone callback's
            # process may fast-forward its CPU charges (advance()); the
            # loop folds those pops into its counters only when one
            # happened, which always moved ``_seq``.  A recycled pooled
            # event keeps its (emptied) callbacks list.
            u, n, q = self._urgent, self._normal, self._queue
            heappop = _heappop
            free = self._free
            # without a registry nobody reads the heap depth: skip sampling
            track = self.metrics is not None
            self._solo = True

            if stop_event is None and stop_at == _INF:
                # drain loop: no stop checks
                while True:
                    if u:
                        entry = heappop(q) if q and q[0] < u[0] else u.popleft()
                    elif n:
                        entry = heappop(q) if q and q[0] < n[0] else n.popleft()
                    elif q:
                        entry = heappop(q)
                    else:
                        return None
                    popped += 1
                    self._now = entry[0]
                    event = entry[3]
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._solo = False
                        for cb in callbacks:
                            cb(event)
                        self._solo = True
                    if event._auto:
                        event._processed = False
                        event._triggered = False
                        event._ok = True
                        event._value = None
                        event._defused = False
                        callbacks.clear()
                        event.callbacks = callbacks
                        free.append(event)
                    elif not event._ok and not event._defused:
                        raise event._value
                    if track:
                        seq = self._seq
                        if seq != seen:
                            if self._ff:  # fast-forwards bump _seq, so only here
                                popped, seen, depth, depth_max = self._take_ff(
                                    popped, depth_max)
                            if seq != seen:
                                seen = seq
                                depth = seq - popped
                                if depth > depth_max:
                                    depth_max = depth

            while True:
                if stop_event is not None and stop_event._processed:
                    if not stop_event._ok:
                        stop_event._defused = True
                        raise stop_event._value
                    return stop_event._value
                # pop the global (time, priority, seq) minimum; only heap
                # entries can lie beyond stop_at (deque entries are always
                # at the current instant, which never exceeds it)
                if u:
                    entry = heappop(q) if q and q[0] < u[0] else u.popleft()
                elif n:
                    entry = heappop(q) if q and q[0] < n[0] else n.popleft()
                elif q:
                    entry = q[0]
                    if entry[0] > stop_at:
                        self._now = stop_at
                        return None
                    heappop(q)
                else:
                    break
                popped += 1
                self._now = entry[0]
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if len(callbacks) == 1:
                    callbacks[0](event)
                else:
                    self._solo = False
                    for cb in callbacks:
                        cb(event)
                    self._solo = True
                if event._auto:
                    event._processed = False
                    event._triggered = False
                    event._ok = True
                    event._value = None
                    event._defused = False
                    callbacks.clear()
                    event.callbacks = callbacks
                    free.append(event)
                elif not event._ok and not event._defused:
                    raise event._value
                if track:
                    seq = self._seq
                    if seq != seen:
                        if self._ff:  # fast-forwards bump _seq, so only here
                            popped, seen, depth, depth_max = self._take_ff(
                                popped, depth_max)
                        if seq != seen:
                            seen = seq
                            depth = seq - popped
                            if depth > depth_max:
                                depth_max = depth

            if stop_event is not None:
                if stop_event._processed:
                    if not stop_event._ok:
                        stop_event._defused = True
                        raise stop_event._value
                    return stop_event._value
                raise SimulationError(
                    f"event queue drained before {stop_event!r} triggered (deadlock?)"
                )
            if stop_at != _INF:
                self._now = stop_at
            return None
        finally:
            self._solo = False
            if self._ff:  # not folded in yet: untracked, or a callback raised
                popped, seen, depth, depth_max = self._take_ff(popped, depth_max)
            self._popped = popped
            self._seq_seen = seen
            self._depth = depth
            self._depth_max = depth_max
            self._flush()
