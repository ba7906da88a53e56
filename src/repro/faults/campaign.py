"""Fault campaigns: run workloads under fault plans, check recovery.

A campaign run is three phases per (plan, workload) pair:

1. **Reference** — the workload on a fault-free cluster with the same
   seed and parameters.  Thanks to the named RNG substreams
   (:mod:`repro.rngs`) the faulted run sees the *same* fabric jitter,
   so any payload difference is the fault machinery's doing.
2. **Faulted** — the same workload with the plan injected.
3. **Quiesce + invariants** — after the program completes, interrupt-
   driven draining is enabled on every node and the clock advances in
   bounded slices until the transport is quiet.  Then the recovery
   invariants are checked:

   * payloads byte-equal to the reference run (zero corruption),
   * no stuck requests (pending sends/recvs, attach credits),
   * matcher queues drained (posted and early-arrival),
   * every endpoint's reliable flows empty (nothing in flight, no
     sequence gaps; :meth:`repro.transport.ReliableFlows.inflight`),
     no LAPI send unwindowed or reassembly open, no Pipes packet
     stashed out of order,
   * retransmission count bounded by the injected damage.

Violations are strings naming the failed invariant; a workload that
deadlocks or fails to quiesce reports that as a violation rather than
raising.  Results surface the ``fault.*`` counters so CI logs show what
was actually injected.

CLI::

    python -m repro.faults.campaign --soak          # the CI chaos soak
    python -m repro.faults.campaign --plan chaos --workload pingpong
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.plan import PLANS, FaultPlan, builtin_plan

__all__ = [
    "CampaignResult",
    "SOAK_MATRIX",
    "WORKLOADS",
    "check_invariants",
    "main",
    "quiesce",
    "run_campaign",
    "run_workload",
    "transport_quiet",
]


# ------------------------------------------------------------- workloads
def _pingpong(cluster, reps: int = 6, msg_size: int = 512):
    """Marker ping-pong; each rank returns the bytes it received."""

    def program(comm, rank, size):
        got = []
        buf = bytearray(msg_size)
        yield from comm.barrier()
        for i in range(reps):
            marker = (i % 255) + 1
            if rank == 0:
                yield from comm.send(bytes([marker]) * msg_size, dest=1)
                yield from comm.recv(buf, source=1)
                got.append(bytes(buf))
            else:
                yield from comm.recv(buf, source=0)
                got.append(bytes(buf))
                yield from comm.send(bytes([marker ^ 0xFF]) * msg_size, dest=0)
        return b"".join(got)

    return cluster.run(program)


def _streaming(cluster, count: int = 12, msg_size: int = 1024):
    """Back-to-back Isend/Irecv stream; the receiver returns the data."""
    import numpy as np

    def program(comm, rank, size):
        if rank == 1:
            bufs = [np.zeros(msg_size, dtype=np.uint8) for _ in range(count)]
            reqs = []
            for i in range(count):
                r = yield from comm.irecv(bufs[i], source=0)
                reqs.append(r)
            yield from comm.barrier()
            yield from comm.waitall(reqs)
            yield from comm.send(b"k", dest=0)
            return b"".join(bytes(b) for b in bufs)
        yield from comm.barrier()
        reqs = []
        for i in range(count):
            payload = bytes([(i % 255) + 1]) * msg_size
            r = yield from comm.isend(payload, dest=1)
            reqs.append(r)
        yield from comm.waitall(reqs)
        ack = bytearray(1)
        yield from comm.recv(ack, source=1)
        return bytes(ack)

    return cluster.run(program)


def _rma(cluster, reps: int = 4, win_size: int = 96):
    """MPI-3 one-sided soak: fence halo puts, lock-protected counter
    bumps, and a contended CAS.  Each rank returns its final window
    contents — byte-equal to the fault-free run because every order-
    dependent outcome (who wins the CAS) leaves the same memory."""

    def program(comm, rank, size):
        win = yield from comm.win_create(win_size)
        yield from win.fence()
        right = (rank + 1) % size
        left = (rank - 1) % size
        for i in range(reps):
            pattern = bytes([(rank * 32 + i) % 255 + 1]) * 16
            yield from win.put(pattern, right, 0)
            yield from win.put(pattern, left, 16)
            yield from win.fence()
        # passive target: every rank bumps the shared counter on rank 0
        for _ in range(reps):
            yield from win.lock(0, exclusive=True)
            yield from win.fetch_and_op(1, 0, 64, op="sum")
            yield from win.unlock(0)
        yield from comm.barrier()
        # contended CAS: the non-root ranks race 0 -> 1 at word 72; the
        # winner varies with timing but the memory outcome does not
        if rank != 0:
            yield from win.lock(0, exclusive=False)
            yield from win.compare_and_swap(1, 0, 0, 72)
            yield from win.unlock(0)
        yield from comm.barrier()
        yield from win.fence()
        snapshot = bytes(win.mem)
        yield from win.free()
        return snapshot

    return cluster.run(program)


def _nas(kernel: str):
    def run(cluster):
        from repro.nas.common import run_kernel

        return run_kernel(kernel, cluster, cls="S")

    run.__name__ = f"_nas_{kernel}"
    return run


#: workload name -> (runner, num_nodes)
WORKLOADS: dict[str, tuple[Callable, int]] = {
    "pingpong": (_pingpong, 2),
    "streaming": (_streaming, 2),
    "rma": (_rma, 3),
    "nas-cg": (_nas("cg"), 4),
    "nas-is": (_nas("is"), 4),
    "nas-ep": (_nas("ep"), 4),
}

#: the CI chaos soak: 3 plans x pingpong, one NAS kernel, and the
#: one-sided workload under the two plans that stress its epochs
SOAK_MATRIX = (
    ("loss-burst", "pingpong"),
    ("reorder-storm", "pingpong"),
    ("fifo-squeeze", "pingpong"),
    ("loss-burst", "nas-cg"),
    ("loss-burst", "rma"),
    ("reorder-storm", "rma"),
)


def _payload(result) -> bytes:
    """Canonical bytes for a RunResult (NAS outcomes fold to text)."""
    parts = []
    for v in result.values:
        if v is None:
            parts.append(b"-")
        elif isinstance(v, (bytes, bytearray)):
            parts.append(bytes(v))
        elif hasattr(v, "checksum") and hasattr(v, "verified"):
            parts.append(
                f"{v.name}:{v.verified}:{v.checksum:.12g}".encode()
            )
        else:
            parts.append(repr(v).encode())
    return b"|".join(parts)


# --------------------------------------------------------------- quiesce
def transport_quiet(cluster) -> bool:
    """True when nothing is in flight anywhere in the transport."""
    return not _transport_violations(cluster)


def quiesce(cluster, budget_us: float = 500_000.0,
            slice_us: float = 2_000.0) -> Optional[float]:
    """Drive the clock until the transport drains; time spent, or
    ``None`` if the budget ran out first.

    After the programs return, nobody polls in polling mode, so
    retransmissions would sit in receive FIFOs forever.  Interrupt-
    driven draining is enabled on every node first: the protocol ISRs
    process leftover data and acks until the windows empty.
    """
    if cluster.stack == "raw-lapi":
        for lapi in cluster.lapis:
            lapi.senv("INTERRUPT_SET", True)
    else:
        for backend in cluster.backends:
            backend.set_interrupt_mode(True)
    start = cluster.env.now
    while cluster.env.now - start < budget_us:
        if transport_quiet(cluster):
            return cluster.env.now - start
        cluster.env.run(until=cluster.env.now + slice_us)
    return cluster.env.now - start if transport_quiet(cluster) else None


# ------------------------------------------------------------ invariants
def _fault_counters(cluster) -> dict[str, int]:
    counters = cluster.metrics.snapshot()["counters"]
    return {k: v for k, v in sorted(counters.items()) if k.startswith("fault.")}


def _transport_violations(cluster) -> list[str]:
    """What the transport still holds: unacknowledged or unwindowed
    sends, sequence gaps, open reassemblies, stashed or undrained
    packets."""
    violations: list[str] = []
    endpoints = []
    for i, lapi in enumerate(cluster.lapis):
        if lapi is None:
            continue
        if lapi.unwindowed_sends:
            violations.append(f"node {i}: {lapi.unwindowed_sends} LAPI sends unwindowed")
        if lapi.open_assemblies:
            violations.append(f"node {i}: {lapi.open_assemblies} reassemblies unfinished")
        endpoints.append((i, lapi.flows))
    for i, pipe in enumerate(cluster.pipes):
        if pipe is None:
            continue
        if pipe.stashed:
            violations.append(f"node {i}: {pipe.stashed} pipe packets stashed out of order")
        endpoints.append((i, pipe.flows))
    for i, flows in endpoints:
        view = flows.inflight()
        if view.unacked:
            violations.append(f"node {i}: {sum(view.unacked.values())} "
                              f"{flows.layer} packets stuck in SenderWindow")
        if view.gaps:
            violations.append(f"node {i}: {flows.layer} ReceiverLedger holding "
                              f"{sum(view.gaps.values())} gaps")
    for i, a in enumerate(cluster.adapters):
        if a.rx_pending:
            violations.append(f"node {i}: {a.rx_pending} packets undrained in host FIFO")
    return violations


def check_invariants(cluster, payload: bytes,
                     reference_payload: Optional[bytes] = None) -> list[str]:
    """Recovery-invariant violations on a quiesced cluster (empty=pass)."""
    violations: list[str] = []

    if reference_payload is not None and payload != reference_payload:
        violations.append(
            f"payload corruption: faulted run differs from fault-free "
            f"reference ({len(payload)} vs {len(reference_payload)} bytes)"
        )

    for b in cluster.backends:
        r = b.task_id
        m = b.matcher.view()
        if m.posted:
            violations.append(f"rank {r}: {len(m.posted)} posted receives never matched")
        if m.early:
            violations.append(f"rank {r}: {len(m.early)} early arrivals never claimed")
        if b.pending_sends:
            violations.append(f"rank {r}: {len(b.pending_sends)} sends stuck pending")
        if m.bound:
            violations.append(f"rank {r}: {len(m.bound)} recvs stuck bound")
        if getattr(b, "_attach_outstanding", None):
            violations.append(f"rank {r}: attach credits outstanding")
        eng = b._rma_engine
        if eng is not None:
            if eng._windows:
                violations.append(
                    f"rank {r}: {len(eng._windows)} RMA windows never freed")
            if getattr(eng, "_pending", None):
                violations.append(
                    f"rank {r}: {len(eng._pending)} RMA replies never "
                    f"delivered")

    violations.extend(_transport_violations(cluster))

    retrans = sum(s.retransmissions for s in cluster.node_stats)
    fault = _fault_counters(cluster)
    injected = (
        fault.get("fault.injected_drops", 0)
        + fault.get("fault.duplicates", 0)
        + fault.get("fault.fifo_squeezes", 0)
        + fault.get("fault.dispatcher_stalls", 0)
        + sum(s.packets_dropped for s in cluster.node_stats)
    )
    bound = 16 + 6 * injected
    if retrans > bound:
        violations.append(
            f"retransmissions unbounded: {retrans} > {bound} "
            f"(injected damage {injected})"
        )

    return violations


# --------------------------------------------------------------- running
@dataclass
class CampaignResult:
    """Outcome of one (plan, workload) campaign cell."""

    plan: str
    workload: str
    stack: str
    seed: int
    ok: bool
    violations: list[str] = field(default_factory=list)
    elapsed_us: float = 0.0
    quiesce_us: Optional[float] = None
    retransmissions: int = 0
    packets_dropped: int = 0
    fault_counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "workload": self.workload,
            "stack": self.stack,
            "seed": self.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "elapsed_us": self.elapsed_us,
            "quiesce_us": self.quiesce_us,
            "retransmissions": self.retransmissions,
            "packets_dropped": self.packets_dropped,
            "fault_counters": dict(self.fault_counters),
        }


def run_workload(
    workload: str,
    plan: Optional[FaultPlan] = None,
    stack: str = "lapi-enhanced",
    seed: int = 0,
    params=None,
    trace: bool = False,
):
    """Build a cluster, run one workload under ``plan``; returns
    ``(cluster, result, payload)``.  Deadlocks propagate."""
    from repro.cluster import SPCluster

    runner, num_nodes = WORKLOADS[workload]
    cluster = SPCluster(num_nodes, stack=stack, params=params, seed=seed,
                        trace=trace, fault_plan=plan)
    result = runner(cluster)
    return cluster, result, _payload(result)


def _reference_payload(workload: str, stack: str, seed: int, params) -> bytes:
    """Fault-free reference payload (module-level: a parallel-runner cell)."""
    _, _, payload = run_workload(workload, plan=None, stack=stack, seed=seed,
                                 params=params)
    return payload


def run_campaign(
    plans=None,
    workloads=("pingpong", "streaming", "rma", "nas-cg"),
    stack: str = "lapi-enhanced",
    seed: int = 0,
    params=None,
    trace: bool = False,
    jobs: Optional[int] = None,
) -> list[CampaignResult]:
    """The full matrix: every plan against every workload.

    ``jobs`` fans the independent cells across worker processes via
    :mod:`repro.bench.parallel`; every cell derives its randomness from
    its own (plan, workload, seed) arguments, so the result list is
    byte-identical to a serial run at any worker count.
    """
    from repro.bench.parallel import Cell, run_cells

    if plans is None:
        plans = [builtin_plan(n) for n in
                 ("loss-burst", "reorder-storm", "fifo-squeeze")]
    ref_payloads = run_cells(
        [Cell(_reference_payload, w, stack, seed, params) for w in workloads],
        jobs=jobs)
    references = dict(zip(workloads, ref_payloads))
    return run_cells(
        [Cell(_run_cell, plan, workload, references[workload], stack, seed,
              params, trace)
         for plan in plans for workload in workloads],
        jobs=jobs)


def _run_cell(plan: FaultPlan, workload: str, reference_payload: bytes,
              stack: str, seed: int, params, trace: bool) -> CampaignResult:
    from repro.cluster import DeadlockError

    out = CampaignResult(plan=plan.name, workload=workload, stack=stack,
                         seed=seed, ok=False)
    try:
        cluster, result, payload = run_workload(
            workload, plan=plan, stack=stack, seed=seed, params=params,
            trace=trace)
    except DeadlockError as exc:
        out.violations = [f"stuck: {exc}"]
        return out
    out.elapsed_us = result.elapsed_us
    out.quiesce_us = quiesce(cluster)
    if out.quiesce_us is None:
        out.violations.append("stuck: transport failed to quiesce in budget")
    out.violations.extend(check_invariants(cluster, payload, reference_payload))
    out.retransmissions = sum(s.retransmissions for s in cluster.node_stats)
    out.packets_dropped = (
        sum(s.packets_dropped for s in cluster.node_stats) + cluster.fabric.dropped
    )
    out.fault_counters = _fault_counters(cluster)
    out.ok = not out.violations
    return out


def run_soak(stack: str = "lapi-enhanced", seed: int = 0,
             jobs: Optional[int] = None) -> list[CampaignResult]:
    """The deterministic CI chaos soak (see :data:`SOAK_MATRIX`).

    ``jobs`` parallelises the cells; results are identical at any
    worker count (see :func:`run_campaign`).
    """
    from repro.bench.parallel import Cell, run_cells

    workloads = []
    for _plan, workload in SOAK_MATRIX:
        if workload not in workloads:
            workloads.append(workload)
    ref_payloads = run_cells(
        [Cell(_reference_payload, w, stack, seed, None) for w in workloads],
        jobs=jobs)
    references = dict(zip(workloads, ref_payloads))
    return run_cells(
        [Cell(_run_cell, builtin_plan(plan_name), workload,
              references[workload], stack, seed, None, False)
         for plan_name, workload in SOAK_MATRIX],
        jobs=jobs)


# ------------------------------------------------------------------- CLI
def main(argv=None) -> int:
    import argparse

    from repro.cluster import STACKS

    parser = argparse.ArgumentParser(
        description="Run fault campaigns and check recovery invariants.")
    parser.add_argument("--soak", action="store_true",
                        help="the CI chaos soak (3 plans x pingpong + NAS)")
    parser.add_argument("--plan", action="append", default=None,
                        choices=sorted(PLANS),
                        help="built-in plan name (repeatable)")
    parser.add_argument("--workload", action="append", default=None,
                        choices=sorted(WORKLOADS),
                        help="workload name (repeatable)")
    parser.add_argument("--stack", default="lapi-enhanced", choices=STACKS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel campaign workers (0 = one per CPU); "
                             "results are identical at any worker count")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write results as JSON")
    args = parser.parse_args(argv)

    if args.soak:
        results = run_soak(stack=args.stack, seed=args.seed, jobs=args.jobs)
    else:
        plans = ([builtin_plan(n) for n in args.plan] if args.plan else None)
        workloads = tuple(args.workload) if args.workload else (
            "pingpong", "streaming", "rma", "nas-cg")
        results = run_campaign(plans=plans, workloads=workloads,
                               stack=args.stack, seed=args.seed,
                               jobs=args.jobs)

    width = max(len(r.plan) for r in results)
    for r in results:
        drops = r.fault_counters.get("fault.injected_drops", 0)
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4s} {r.plan:{width}s} x {r.workload:10s} "
              f"elapsed={r.elapsed_us:10.1f}us quiesce={r.quiesce_us or 0:8.1f}us "
              f"retrans={r.retransmissions:3d} drops={drops:3d}")
        for v in r.violations:
            print(f"      - {v}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2)
        print(f"wrote {args.json}")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} campaign cells passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
