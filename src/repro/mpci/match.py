"""Envelope matching: posted receives, early arrivals, wildcards, order.

MPI's non-overtaking rule: between one (sender, receiver, communicator)
pair, messages must be matched in the order they were sent.  Both queues
here preserve insertion order and search linearly from the front, which
(together with the backends announcing arrivals in per-source send
order) implements that rule.  Linear search is also what the real MPCI
did — the paper's §5.3 attributes part of MPI-LAPI's remaining overhead
to "the cost of posting and matching receives"; callers charge
``match_base_us + inspected * match_per_entry_us``.

:class:`Matcher` bundles one task's queues and is the only code that
inserts into them: its two commits (:meth:`Matcher.post`,
:meth:`Matcher.arrive`) re-check the opposite queue and insert without
a yield in between, so a receive and a message can never both wait.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "EarlyArrivalQueue",
    "Envelope",
    "Matcher",
    "MatcherView",
    "PostedReceiveQueue",
    "envelope_matches",
]

#: wildcard source rank for receives
ANY_SOURCE = -1
#: wildcard tag for receives
ANY_TAG = -1


class Envelope(NamedTuple):
    """The matching triple carried by every message's first packet."""

    context: int  # communicator context id
    src: int  # sender's rank in that communicator
    tag: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Envelope(ctx={self.context}, src={self.src}, tag={self.tag})"


def envelope_matches(context: int, src_pattern: int, tag_pattern: int, env: Envelope) -> bool:
    """Does a receive pattern match a message envelope?"""
    if env.context != context:
        return False
    if src_pattern != ANY_SOURCE and env.src != src_pattern:
        return False
    if tag_pattern != ANY_TAG and env.tag != tag_pattern:
        return False
    return True


class PostedReceiveQueue:
    """Receives posted before their message arrived."""

    def __init__(self) -> None:
        self._entries: list[tuple[int, int, int, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def post(self, context: int, src_pattern: int, tag_pattern: int, handle: Any) -> None:
        self._entries.append((context, src_pattern, tag_pattern, handle))

    def match(self, env: Envelope) -> tuple[Optional[Any], int]:
        """Find (and remove) the first posted receive matching ``env``.

        Returns ``(handle_or_None, entries_inspected)``.
        """
        for i, (ctx, srcp, tagp, handle) in enumerate(self._entries):
            if envelope_matches(ctx, srcp, tagp, env):
                del self._entries[i]
                return handle, i + 1
        return None, len(self._entries)

    def remove(self, handle: Any) -> bool:
        """Cancel a posted receive (MPI_Cancel support)."""
        for i, entry in enumerate(self._entries):
            if entry[3] is handle:
                del self._entries[i]
                return True
        return False


class EarlyArrivalQueue:
    """Messages that arrived before a matching receive was posted.

    Entries are kept in arrival order, which — because each backend
    announces messages in per-source send order — is a legal matching
    order under the non-overtaking rule.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[Envelope, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, env: Envelope, handle: Any) -> None:
        self._entries.append((env, handle))

    def match(
        self, context: int, src_pattern: int, tag_pattern: int
    ) -> tuple[Optional[tuple[Envelope, Any]], int]:
        """Find (and remove) the first early arrival matching the pattern.

        Returns ``((envelope, handle) or None, entries_inspected)``.
        """
        entry, inspected = self.peek_match(context, src_pattern, tag_pattern)
        if entry is not None:
            del self._entries[inspected - 1]
        return entry, inspected

    def peek_match(
        self, context: int, src_pattern: int, tag_pattern: int
    ) -> tuple[Optional[tuple[Envelope, Any]], int]:
        """Like :meth:`match` but non-destructive (MPI_Probe support)."""
        for i, (env, handle) in enumerate(self._entries):
            if envelope_matches(context, src_pattern, tag_pattern, env):
                return (env, handle), i + 1
        return None, len(self._entries)


class MatcherView(NamedTuple):
    """A snapshot of one task's matching state; posted receives appear
    as envelope patterns (-1 = wildcard)."""

    posted: tuple[Envelope, ...]
    early: tuple[Envelope, ...]
    #: rendezvous receives awaiting data: (source task, send id, envelope)
    bound: tuple[tuple[int, int, Envelope], ...]

    def stranded(self) -> list[tuple[Envelope, Envelope]]:
        """Posted/early pairs that match each other: a pair the commits
        should have joined (empty unless a queue was filled directly)."""
        return [(p, e) for p in self.posted for e in self.early
                if envelope_matches(*p, e)]

    def describe(self) -> str:
        """One line for a deadlock report."""
        text = (f"posted {list(self.posted)}; early {list(self.early)}; "
                f"bound {list(self.bound)}")
        n = len(self.stranded())
        return text + (f"; {n} matchable pair(s) stranded" if n else "")


class Matcher:
    """One task's MPCI matching state: the only code that inserts into
    its posted and early queues.

    Both sides run *probe, charge, commit*: the probe (``early.match``
    for a receive, ``posted.match`` for an arrival) claims from one
    queue, the caller charges the match cost — which may yield — and,
    if the probe found nothing, the commit (:meth:`post`,
    :meth:`arrive`) re-checks that queue and inserts without yielding.
    A caller that cannot yield may commit without probing.
    """

    __slots__ = ("posted", "early", "_bound")

    def __init__(self) -> None:
        self.posted = PostedReceiveQueue()
        self.early = EarlyArrivalQueue()
        #: (src task, send id) -> (receive handle, envelope) of a matched
        #: request-to-send whose data has not arrived
        self._bound: dict[tuple[int, int], tuple[Any, Envelope]] = {}

    def post(self, context: int, src_pattern: int, tag_pattern: int,
             handle: Any) -> Optional[tuple[Envelope, Any]]:
        """Receive-side commit: claim a matching early arrival, else post
        ``handle``.  Returns the claimed ``(envelope, handle)`` or None."""
        entry, _ = self.early.match(context, src_pattern, tag_pattern)
        if entry is None:
            self.posted.post(context, src_pattern, tag_pattern, handle)
        return entry

    def arrive(self, env: Envelope, handle: Any,
               queue: bool = True) -> tuple[Optional[Any], int]:
        """Arrival-side commit: claim a matching posted receive, else (if
        ``queue``) queue ``handle`` as an early arrival.  Returns
        ``(posted handle or None, entries inspected)``."""
        found, inspected = self.posted.match(env)
        if found is None and queue:
            self.early.add(env, handle)
        return found, inspected

    def bind(self, src_task: int, sid: int, handle: Any, env: Envelope) -> None:
        """Reserve ``handle`` for the data of rendezvous send ``sid``."""
        self._bound[(src_task, sid)] = (handle, env)

    def claim(self, src_task: int, sid: int) -> Optional[tuple[Any, Envelope]]:
        """Take the ``(handle, envelope)`` bound to rendezvous send ``sid``."""
        return self._bound.pop((src_task, sid), None)

    def view(self) -> MatcherView:
        """The public snapshot diagnostics read (DeadlockError, faults)."""
        return MatcherView(
            tuple(Envelope(*e[:3]) for e in self.posted._entries),
            tuple(env for env, _ in self.early._entries),
            tuple((s, sid, env) for (s, sid), (_, env) in self._bound.items()),
        )
