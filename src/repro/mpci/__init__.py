"""MPCI — point-to-point message-matching machinery.

Both protocol stacks carry an MPCI layer (the paper's Fig. 1a/1c): the
native one is thick (it also drives the Pipes byte stream), the MPI-LAPI
one is thin (matching only; transport is LAPI's job).  The matching data
structures — posted-receive queue and early-arrival queue with wildcard
(``MPI_ANY_SOURCE``/``MPI_ANY_TAG``) support and non-overtaking order —
are shared and live here, bundled per task by :class:`Matcher`.
"""

from repro.mpci.match import (
    ANY_SOURCE,
    ANY_TAG,
    EarlyArrivalQueue,
    Envelope,
    Matcher,
    MatcherView,
    PostedReceiveQueue,
    envelope_matches,
)

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
