"""RMA observability: op phases and epoch summaries from trace records.

The RMA core (``repro.mpi.rma.Window``) emits ``layer="rma"`` records
at every call site (one per data-movement op, ``fence_enter``/
``fence_exit`` per epoch, lock/unlock per passive epoch).  Every
put/get/accumulate record also carries a cluster-unique message id;
the LAPI stacks thread it into the transport, so the origin-side
*issue* record can be joined with the target-side LAPI
``cmpl_done`` record — the moment the op's bytes (and its applied-counter
bump) landed.  That join is the RMA analogue of the two-sided Fig-10
breakdown: issue→apply latency per op, without a request object to hang
timestamps on.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Any, Optional

__all__ = ["rma_records", "rma_op_phases", "rma_summary"]

#: rma-layer events that represent a data-movement call at the origin
OP_EVENTS = ("put", "get", "accumulate", "get_accumulate", "rmw",
             "rput", "rget")


def rma_records(tracer) -> list:
    """All ``layer == "rma"`` records, in time order."""
    recs = [r for r in tracer.records if r.layer == "rma"]
    recs.sort(key=lambda r: r.time)
    return recs


def rma_op_phases(tracer) -> list[dict[str, Any]]:
    """Per-op issue→apply timing, joined on the message id.

    Returns one dict per LAPI-stack data-movement op whose apply-side
    record is present: ``{op, origin, target, win, bytes, issue_us,
    apply_us, latency_us}``.  Ops whose mid never reaches a LAPI
    completion (native emulation, local ops) and ops whose completion
    record was dropped are omitted —
    callers needing totals should use :func:`rma_summary`.
    """
    applies: dict[str, float] = {}
    for r in tracer.records:
        if r.layer == "lapi" and r.event == "cmpl_done":
            mid = r.fields.get("mid")
            # first completion wins: multi-leg ops (get, get_accumulate)
            # reuse the mid on the reply; the request leg's apply is the
            # one that touched the window
            if mid is not None and mid not in applies:
                applies[mid] = r.time
    out: list[dict[str, Any]] = []
    for r in rma_records(tracer):
        if r.event not in OP_EVENTS:
            continue
        mid = r.fields.get("mid")
        if mid is None or mid not in applies:
            continue
        apply_us = applies[mid]
        out.append({
            "op": r.event,
            "origin": r.node,
            "target": r.fields.get("tgt"),
            "win": r.fields.get("win"),
            "bytes": r.fields.get("bytes", 0),
            "issue_us": r.time,
            "apply_us": apply_us,
            "latency_us": apply_us - r.time,
        })
    return out


def rma_summary(tracer) -> dict[str, Any]:
    """Aggregate view: op tallies, per-node fence epochs and durations.

    ``fences`` maps node -> list of ``(epoch, duration_us)`` pairs, built
    by pairing each ``fence_enter`` with its ``fence_exit`` on the same
    node and window.  ``ops`` tallies origin-side data-movement events.
    """
    ops: _TallyCounter = _TallyCounter()
    open_fences: dict[tuple, float] = {}
    fences: dict[int, list[tuple[int, float]]] = {}
    locks = 0
    for r in rma_records(tracer):
        if r.event in OP_EVENTS:
            ops[r.event] += 1
        elif r.event == "fence_enter":
            open_fences[(r.node, r.fields.get("win"), r.fields.get("epoch"))] = r.time
        elif r.event == "fence_exit":
            key = (r.node, r.fields.get("win"), r.fields.get("epoch"))
            start = open_fences.pop(key, None)
            if start is not None:
                fences.setdefault(r.node, []).append(
                    (r.fields.get("epoch"), r.time - start))
        elif r.event == "lock":
            locks += 1
    return {
        "ops": dict(ops),
        "fences": fences,
        "locks": locks,
        "unpaired_fences": len(open_fences),
    }
