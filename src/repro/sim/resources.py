"""A waitable resource built on the event kernel.

:class:`Store` is an unbounded FIFO of items with blocking ``get``.
The events its ``get`` returns come from the environment's pooled
free list (:meth:`Environment.auto_event`): yield them immediately and
do not read their state after they fire — the run loop recycles them.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Environment, Event

__all__ = ["Store"]


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
