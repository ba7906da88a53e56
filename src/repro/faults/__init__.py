"""Declarative fault injection and recovery-invariant campaigns.

The paper's premise (§2.2) is that LAPI gives MPI a *reliable* transport
over an unreliable packet switch.  This package turns that claim into a
testable property: :class:`FaultPlan` schedules fault events, a
:class:`FaultInjector` delivers them through :class:`FaultPoint` hooks
installed in the fabric, adapters, dispatchers, and CPUs, and
:func:`run_campaign` checks that every workload recovers — byte-equal
payloads versus a fault-free run, no stuck requests, drained matcher
queues, empty windows/ledgers, bounded retransmissions.

See ``docs/FAULTS.md`` for the plan schema and invariant list.
"""

from repro.faults.plan import (
    DispatcherStall,
    DuplicateStorm,
    FaultEvent,
    FaultPlan,
    FifoSqueeze,
    InterruptStorm,
    LossBurst,
    NodeSlowdown,
    PLANS,
    ReorderStorm,
    SITES,
    builtin_plan,
)
from repro.faults.points import FaultInjector, FaultPoint, PacketVerdict
from repro.lazy import lazy_exports

# the campaign driver, which runs whole clusters, loads on first use
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faults.campaign": (
        "CampaignResult", "SOAK_MATRIX", "WORKLOADS", "check_invariants",
        "quiesce", "run_campaign", "run_soak", "run_workload",
        "transport_quiet"),
})

__all__ = [
    "CampaignResult",
    "SOAK_MATRIX",
    "WORKLOADS",
    "run_soak",
    "run_workload",
    "DispatcherStall",
    "DuplicateStorm",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultPoint",
    "FifoSqueeze",
    "InterruptStorm",
    "LossBurst",
    "NodeSlowdown",
    "PLANS",
    "PacketVerdict",
    "ReorderStorm",
    "SITES",
    "builtin_plan",
    "check_invariants",
    "quiesce",
    "run_campaign",
    "transport_quiet",
]
