"""Request and Status objects for nonblocking operations."""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.sim import Environment, Event, live_waiters

__all__ = ["Request", "Status"]


class Status:
    """Receive status: who sent it, which tag, how many bytes."""

    __slots__ = ("source", "tag", "count")

    def __init__(self, source: int = -1, tag: int = -1, count: int = 0):
        self.source = source
        self.tag = tag
        self.count = count

    def get_count(self, itemsize: int = 1) -> int:
        """Number of received elements of the given item size."""
        if itemsize <= 0:
            raise ValueError("itemsize must be positive")
        return self.count // itemsize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Status(source={self.source}, tag={self.tag}, count={self.count})"


class Request:
    """Handle for a nonblocking send or receive.

    Lifecycle: *pending* → (*needs-finalize*) → *done*.  The optional
    finalize step is how deferred work (e.g. the early-arrival-buffer →
    user-buffer copy) is charged to the thread that calls WAIT/TEST,
    matching where the real MPCI performs it.
    """

    __slots__ = ("env", "kind", "done", "status", "cancelled", "_waiters",
                 "_finalizer", "ctx", "user_ctx")

    def __init__(self, env: Environment, kind: str):
        self.env = env
        self.kind = kind  # "send" | "recv"
        self.done = False
        self.cancelled = False
        self.status = Status()
        self._waiters: list[Event] = []
        self._finalizer: Optional[Callable[[str], Generator]] = None
        #: backend-private state (e.g. the receive buffer view)
        self.ctx = None
        #: API-layer state (e.g. a pending derived-datatype unpack)
        self.user_ctx = None

    @classmethod
    def on_counter(cls, env: Environment, kind: str, cntr,
                   threshold: int = 1) -> "Request":
        """Request completed by a :class:`~repro.lapi.counters.Counter`
        reaching ``threshold`` — how RMA request-ops (MPI_Rput/Rget) ride
        LAPI completion counters without a matching engine."""
        req = cls(env, kind)

        def _check(c):
            if not req.done and c.value >= threshold:
                req.complete(count=0)

        cntr.subscribe(_check)
        _check(cntr)
        return req

    # ------------------------------------------------------------------
    def complete(self, source: int = -1, tag: int = -1, count: int = 0) -> None:
        """Mark fully complete and wake waiters."""
        if self.done:
            raise RuntimeError("request completed twice")
        self.done = True
        self.status.source = source
        self.status.tag = tag
        self.status.count = count
        self._notify()

    def set_finalizer(self, fn: Callable[[str], Generator]) -> None:
        """Install deferred completion work; wakes waiters so a blocked
        WAIT runs it."""
        self._finalizer = fn
        self._notify()

    @property
    def needs_finalize(self) -> bool:
        return self._finalizer is not None and not self.done

    def run_finalizer(self, thread: str) -> Generator:
        """Execute and clear the deferred work (must end by completing
        the request)."""
        fn, self._finalizer = self._finalizer, None
        yield from fn(thread)
        if not self.done:
            raise RuntimeError("finalizer did not complete the request")

    # ------------------------------------------------------------------
    def arm(self, ev: Event) -> None:
        """Fire ``ev`` at the next state change, or at once (unless it
        has fired already) if the request is done or needs finalizing.
        Triggers that another source fired first are dropped here."""
        if not (self.done or self.needs_finalize):
            self._waiters = live_waiters(self._waiters)
            self._waiters.append(ev)
        elif not ev.triggered:
            ev.succeed()

    def _notify(self) -> None:
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            if not ev.triggered:
                ev.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("finalize" if self.needs_finalize else "pending")
        return f"<Request {self.kind} {state}>"
