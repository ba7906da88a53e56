"""Shared transport machinery: one reliable-flow engine for both stacks.

Both reliable layers in the paper's Figure 1 — the Pipes byte stream
(native stack) and LAPI (new stack) — run the same protocol over HAL:
a bounded sender window with cumulative acknowledgements and
retransmission, and receiver-side duplicate suppression that tolerates
the fabric's out-of-order delivery.  :class:`SenderWindow` and
:class:`ReceiverLedger` are the pure state machines (property-tested);
:class:`ReliableFlows` is the simulation-bound engine each endpoint
builds around them; it also drains the adapter and runs the wait loops
that drive progress.  The *delivery discipline* differs (Pipes reorders
into a byte stream; LAPI delivers immediately and assembles by
offset), so that part stays in each protocol as a ``deliver`` hook.
"""

from repro.transport.flows import FlowsView, ReliableFlows, wake_all
from repro.transport.reliability import ReceiverLedger, SenderWindow

__all__ = ["FlowsView", "ReceiverLedger", "ReliableFlows", "SenderWindow",
           "wake_all"]
