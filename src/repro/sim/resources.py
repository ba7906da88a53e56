"""Waitable resources built on the event kernel.

- :class:`Mutex` — FIFO mutual exclusion (models a lock or a CPU core).
- :class:`Store` — unbounded FIFO of items with blocking ``get``.

The operation events these return come from the environment's pooled
free list (:meth:`Environment.auto_event`): yield them immediately and
do not read their state after they fire — the run loop recycles them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Mutex", "Store"]


class Mutex:
    """FIFO mutex.  ``yield mutex.acquire()`` then ``mutex.release()``."""

    def __init__(self, env: Environment, name: str = "mutex"):
        self.env = env
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()
        #: total number of acquisitions (statistic)
        self.acquisitions = 0

    @property
    def locked(self) -> bool:
        return self._locked

    def acquire(self) -> Event:
        ev = self.env.auto_event()
        if not self._locked:
            self._locked = True
            self.acquisitions += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True on success."""
        if self._locked:
            return False
        self._locked = True
        self.acquisitions += 1
        return True

    def release(self) -> None:
        if not self._locked:
            raise SimulationError(f"{self.name}: release of unlocked mutex")
        if self._waiters:
            self.acquisitions += 1
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Store:
    """Unbounded FIFO store of items.

    ``put`` is immediate; ``yield store.get()`` blocks until an item is
    available.  Getters are served FIFO.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = self.env.auto_event()
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek_all(self) -> list[Any]:
        """Snapshot of queued items (for inspection/tests)."""
        return list(self._items)
