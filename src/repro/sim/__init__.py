"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event simulator in the style
of SimPy, purpose-built for the MPI-LAPI reproduction.  Simulated time is
a float in microseconds.

Public surface:

- :class:`Environment` — event loop, clock, process spawning;
  :meth:`Environment.park` sleeps on several wake sources at once.
- :class:`Event` — one-shot triggerable event carrying a value or error.
- :class:`Timeout` — event that fires after a delay.
- :class:`Process` — a running generator; itself an event that triggers
  when the generator returns.
- :class:`AnyOf` / :class:`AllOf` — condition events.
- :class:`Interrupt` — exception thrown into a process by
  :meth:`Process.interrupt`.
- :func:`live_waiters` — a wake source's waiter list without its fired
  triggers.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    live_waiters,
)
from repro.sim.resources import Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Store",
    "Timeout",
    "live_waiters",
]
