"""LAPI counters: the library's completion-signalling primitive."""

from __future__ import annotations

from repro.sim import Environment, Event, live_waiters

__all__ = ["Counter"]


class Counter:
    """An integer event counter (LAPI's org/tgt/cmpl counter object).

    ``LAPI_Waitcntr`` semantics live in :meth:`repro.lapi.api.Lapi.waitcntr`
    (wait until ``value >= val`` then subtract ``val``); the counter
    itself just supports increment/set/read plus change notification.
    """

    __slots__ = ("env", "name", "_value", "_waiters", "_subscribers")

    def __init__(self, env: Environment, name: str = "cntr", initial: int = 0):
        self.env = env
        self.name = name
        self._value = initial
        self._waiters: list[Event] = []
        self._subscribers: list = []

    @property
    def value(self) -> int:
        return self._value

    def incr(self, by: int = 1) -> None:
        self._value += by
        self._notify()

    def set(self, value: int) -> None:
        self._value = value
        self._notify()

    def sub(self, by: int) -> None:
        if by > self._value:
            raise ValueError(f"{self.name}: cannot subtract {by} from {self._value}")
        self._value -= by
        self._notify()

    def changed(self) -> Event:
        """One-shot event fired at the counter's next state change."""
        ev = self.env.event()
        self.arm(ev)
        return ev

    def arm(self, ev: Event) -> None:
        """Fire ``ev`` (unless it has fired already) at the counter's
        next state change.  Triggers that another source fired first are
        dropped here."""
        self._waiters = live_waiters(self._waiters)
        self._waiters.append(ev)

    def subscribe(self, fn) -> None:
        """Register a persistent synchronous callback on every change."""
        self._subscribers.append(fn)

    def _notify(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed(self._value)
        for fn in self._subscribers:
            fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self._value}>"
