"""Latency breakdowns from trace records (the paper's Fig 10 as data).

Section 6.2 of the paper decomposes ping-pong latency into where the
time goes: sender-side overhead, wire/switch time, header-handler
dispatch, data copies, and — for the base LAPI variant — the thread
context switch that runs the completion handler.  This module rebuilds
that decomposition from a :class:`~repro.trace.Tracer` capture, one
:class:`Breakdown` per delivered message.

The seven phases partition the end-to-end interval exactly (telescoping
timestamps), so ``sum(b.phases.values()) == b.end_to_end`` up to float
rounding:

===============  ====================================================
``send_overhead``  send call until the first packet leaves the wire
``wire``           first packet's link + fabric traversal
``interrupt``      receive-side interrupt-hysteresis dwell (the native
                   stack's Fig 13 penalty; identically zero in polling
                   mode and on LAPI, whose ISR has no hysteresis)
``hdr_handler``    arrival in the host FIFO until the header handler
``copy``           header handler until the message is assembled
``thread_switch``  hand-off to the completion-handler thread (base
                   variant only; identically zero when handlers run
                   in the dispatcher's context)
``completion``     completion-handler body until the done mark
===============  ====================================================

Pipes/native messages use the same phase names; their per-packet
processing and reordering copies all land in ``copy`` and the last two
phases are zero (native completion is inline in the dispatcher).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Optional

from repro.trace import TraceRecord, Tracer

__all__ = [
    "Breakdown",
    "CAPTURE_MODES",
    "PHASES",
    "TruncatedTraceError",
    "breakdown",
    "capture",
    "lapi_breakdowns",
    "pipes_breakdowns",
    "summarize",
]

PHASES = (
    "send_overhead",
    "wire",
    "interrupt",
    "hdr_handler",
    "copy",
    "thread_switch",
    "completion",
)


class TruncatedTraceError(RuntimeError):
    """The tracer dropped records; a breakdown would silently lie."""


_warned_truncated = False


def _check_dropped(tracer: Tracer, allow_truncated: bool) -> None:
    global _warned_truncated
    if tracer.dropped == 0:
        return
    if not allow_truncated:
        dominant = ""
        if tracer.dropped_by_layer:
            layer, n = tracer.dropped_by_layer.most_common(1)[0]
            dominant = f"; layer {layer!r} dominated the loss ({n}/{tracer.dropped})"
        raise TruncatedTraceError(
            f"tracer dropped {tracer.dropped} record(s) (capacity "
            f"{tracer.capacity}){dominant}; breakdowns would be incomplete — "
            "raise the capacity or pass allow_truncated=True"
        )
    if not _warned_truncated:
        _warned_truncated = True
        warnings.warn(
            f"computing breakdowns from a truncated trace "
            f"({tracer.dropped} dropped record(s)); results may be partial",
            RuntimeWarning,
            stacklevel=3,
        )


@dataclass
class Breakdown:
    """Where one message's end-to-end time went."""

    src: int
    dst: int
    key: Any  # LAPI msg number or Pipes send id, scoped by ``src``
    bytes: int
    start: float
    end: float
    phases: dict[str, float]
    #: cluster-unique MPI message id, when the message carried one
    #: (control traffic below MPI has none) — joins against span trees
    mid: Optional[str] = None

    @property
    def end_to_end(self) -> float:
        return self.end - self.start


def _dwells_by_node(tracer: Tracer) -> dict[int, list[TraceRecord]]:
    """Interrupt-hysteresis dwell records (native ISR), grouped by node."""
    out: dict[int, list[TraceRecord]] = {}
    for r in tracer.filter(layer="cpu", event="hysteresis_dwell"):
        out.setdefault(r.node, []).append(r)
    return out


def _dwell_overlap(
    dwells: dict[int, list[TraceRecord]], node: int, t0: float, t1: float
) -> float:
    """CPU time the node spent in hysteresis dwells inside [t0, t1]."""
    total = 0.0
    for r in dwells.get(node, ()):
        lo = max(r.time, t0)
        hi = min(r.time + r.fields.get("us", 0.0), t1)
        if hi > lo:
            total += hi - lo
    return total


def _first_by_key(
    records: list[TraceRecord], *key_fields: str
) -> dict[tuple, TraceRecord]:
    """Index records by ``(node, *key_fields)``, keeping the
    chronologically first.

    LAPI message numbers and Pipes frame ids are numbered per origin, so
    a receive-side index must include the record's ``src`` field: on
    more than two nodes, messages from different senders share numbers.
    """
    out: dict[tuple, TraceRecord] = {}
    for r in records:
        key = tuple(r.fields.get(f) for f in key_fields)
        if None not in key:
            out.setdefault((r.node, *key), r)
    return out


def lapi_breakdowns(
    tracer: Tracer, allow_truncated: bool = False
) -> list[Breakdown]:
    """One :class:`Breakdown` per completed LAPI active message.

    Covers every ``amsend`` whose message reached ``cmpl_done`` on the
    target — MPI data messages and the thin-MPCI control messages alike
    (filter on ``bytes`` or count to isolate the data path).
    """
    _check_dropped(tracer, allow_truncated)
    pkt_tx = _first_by_key(tracer.filter(layer="adapter", event="pkt_tx"), "msg")
    pkt_rx = _first_by_key(tracer.filter(layer="adapter", event="pkt_rx"),
                           "src", "msg")
    hdr = _first_by_key(tracer.filter(layer="lapi", event="hdr_handler"),
                        "src", "msg")
    done_copy = _first_by_key(tracer.filter(layer="lapi", event="msg_complete"),
                              "src", "msg")
    cmpl = _first_by_key(tracer.filter(layer="lapi", event="cmpl_done"),
                         "src", "msg")
    # context switches into the completion-handler thread, per node
    switches: dict[int, list[TraceRecord]] = {}
    for r in tracer.filter(layer="cpu", event="ctx_switch", to="cmpl"):
        switches.setdefault(r.node, []).append(r)
    dwells = _dwells_by_node(tracer)

    out: list[Breakdown] = []
    for send in tracer.filter(layer="lapi", event="amsend"):
        msg = send.fields["msg"]
        dst = send.fields["tgt"]
        t_tx = pkt_tx.get((send.node, msg))
        t_rx = pkt_rx.get((dst, send.node, msg))
        t_hdr = hdr.get((dst, send.node, msg))
        t_asm = done_copy.get((dst, send.node, msg))
        t_done = cmpl.get((dst, send.node, msg))
        if None in (t_tx, t_rx, t_hdr, t_asm, t_done):
            continue  # still in flight (or truncated away)
        # the switch into the completion thread, if one was charged while
        # this message sat between assembly and its done mark (zero on
        # the enhanced variant and whenever the thread was already hot)
        switch_us = 0.0
        for r in switches.get(dst, ()):
            if t_asm.time <= r.time <= t_done.time:
                switch_us = min(r.fields["cost_us"], t_done.time - t_asm.time)
                break
        # LAPI's own ISR has no hysteresis, but a LAPI message can still
        # be delayed by a dwell when both stacks share the node (rare) —
        # carve the dwell out of the dispatch-delay window
        hdr_us = t_hdr.time - t_rx.time
        intr_us = min(_dwell_overlap(dwells, dst, t_rx.time, t_hdr.time), hdr_us)
        out.append(
            Breakdown(
                src=send.node,
                dst=dst,
                key=msg,
                bytes=send.fields.get("bytes", 0),
                start=send.time,
                end=t_done.time,
                phases={
                    "send_overhead": t_tx.time - send.time,
                    "wire": t_rx.time - t_tx.time,
                    "interrupt": intr_us,
                    "hdr_handler": hdr_us - intr_us,
                    "copy": t_asm.time - t_hdr.time,
                    "thread_switch": switch_us,
                    "completion": t_done.time - t_asm.time - switch_us,
                },
                mid=send.fields.get("mid"),
            )
        )
    return out


def pipes_breakdowns(
    tracer: Tracer, allow_truncated: bool = False
) -> list[Breakdown]:
    """One :class:`Breakdown` per completed native-stack data frame.

    Frames are matched to their MPCI completion through the
    cluster-unique message id the frame metadata carries, so only
    eager/rdata frames (the ones that complete a message) produce
    entries; bare control frames do not.
    """
    _check_dropped(tracer, allow_truncated)
    pkt_tx = _first_by_key(tracer.filter(layer="adapter", event="pkt_tx"), "fid")
    pkt_rx = _first_by_key(tracer.filter(layer="adapter", event="pkt_rx"),
                           "src", "fid")
    complete = _first_by_key(tracer.filter(layer="mpci", event="msg_complete"),
                             "mid")
    dwells = _dwells_by_node(tracer)

    out: list[Breakdown] = []
    for send in tracer.filter(layer="pipes", event="frame_send"):
        if send.fields.get("t") not in ("eager", "rdata"):
            continue
        fid = send.fields["fid"]
        sid = send.fields["sid"]
        dst = send.fields["dst"]
        t_tx = pkt_tx.get((send.node, fid))
        t_rx = pkt_rx.get((dst, send.node, fid))
        t_done = complete.get((dst, send.fields.get("mid")))
        if None in (t_tx, t_rx, t_done):
            continue
        # In interrupt mode the receive-side delivery window includes the
        # ISR's hysteresis dwells (Fig 13); report them as their own
        # phase instead of folding them into ``copy``.
        copy_us = t_done.time - t_rx.time
        intr_us = min(_dwell_overlap(dwells, dst, t_rx.time, t_done.time), copy_us)
        out.append(
            Breakdown(
                src=send.node,
                dst=dst,
                key=sid,
                bytes=send.fields.get("bytes", 0),
                start=send.time,
                end=t_done.time,
                phases={
                    "send_overhead": t_tx.time - send.time,
                    "wire": t_rx.time - t_tx.time,
                    "interrupt": intr_us,
                    "hdr_handler": 0.0,
                    "copy": copy_us - intr_us,
                    "thread_switch": 0.0,
                    "completion": 0.0,
                },
                mid=send.fields.get("mid"),
            )
        )
    return out


def summarize(breakdowns: list[Breakdown]) -> dict:
    """Mean per-phase and end-to-end times, JSON-able.

    Returns ``{"count", "bytes", "end_to_end_us", "phases_us"}`` with
    means over the given breakdowns (zeros when the list is empty).
    """
    n = len(breakdowns)
    if n == 0:
        return {
            "count": 0,
            "bytes": 0,
            "end_to_end_us": 0.0,
            "phases_us": {p: 0.0 for p in PHASES},
        }
    return {
        "count": n,
        "bytes": max(b.bytes for b in breakdowns),
        "end_to_end_us": sum(b.end_to_end for b in breakdowns) / n,
        "phases_us": {
            p: sum(b.phases[p] for b in breakdowns) / n for p in PHASES
        },
    }


# --------------------------------------------------------------- capture
#: receive-progress modes :func:`capture` can drive
CAPTURE_MODES = ("polling", "interrupt")


def capture(
    stack: str,
    msg_size: int,
    mode: str = "polling",
    reps: int = 4,
    params=None,
    seed: int = 0,
    fault_plan=None,
):
    """Run a traced 2-node ping-pong; returns the finished cluster.

    The single capture entry point shared by the Fig 10/13 benches and
    the fault campaigns.  ``mode`` selects receive progress:

    ``"polling"``
        blocking send/recv ping-pong; progress made inside MPI calls.
    ``"interrupt"``
        the responder pre-posts its receives and busy-checks the
        receive buffers' *contents* without entering MPI (the paper's
        Fig 13 methodology), so delivery progress is interrupt-driven
        and the hysteresis dwell shows up in the capture.

    The cluster's ``tracer`` holds the full capture — feed it to
    :func:`lapi_breakdowns` / :func:`pipes_breakdowns` for Fig 10
    phases or :func:`repro.obs.build_span_trees` for per-message causal
    trees.  ``fault_plan`` injects a :class:`repro.faults.FaultPlan`,
    whose events appear as ``fault``-layer instants in the capture.
    """
    from repro.cluster import SPCluster
    from repro.machine import MachineParams

    if mode not in CAPTURE_MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {CAPTURE_MODES}")
    if msg_size < 1:
        raise ValueError("capture needs a positive message size")
    if stack == "raw-lapi":
        raise ValueError("capture drives the MPI stacks")
    cluster = SPCluster(
        2, stack=stack,
        params=params if params is not None else MachineParams(),
        seed=seed, trace=True, interrupt_mode=(mode == "interrupt"),
        fault_plan=fault_plan,
    )

    if mode == "interrupt":
        import numpy as np

        def program(comm, rank, size):
            if rank == 1:
                bufs = [np.zeros(msg_size, dtype=np.uint8) for _ in range(reps)]
                reqs = []
                for i in range(reps):
                    r = yield from comm.irecv(bufs[i], source=0)
                    reqs.append(r)
                yield from comm.barrier()
                for i in range(reps):
                    marker = (i % 255) + 1
                    # spin on memory contents — NOT on MPI calls
                    while bufs[i][-1] != marker:
                        yield from comm.backend.cpu.execute(
                            "user", comm.backend.params.poll_check_us
                        )
                    yield from comm.send(bytes([marker]) * msg_size, dest=0)
                return None
            buf = bytearray(msg_size)
            yield from comm.barrier()
            for i in range(reps):
                marker = (i % 255) + 1
                yield from comm.send(bytes([marker]) * msg_size, dest=1)
                yield from comm.recv(buf, source=1)
            return None
    else:
        payload = bytes(msg_size)

        def program(comm, rank, size):
            buf = bytearray(msg_size)
            yield from comm.barrier()
            for _ in range(reps):
                if rank == 0:
                    yield from comm.send(payload, dest=1)
                    yield from comm.recv(buf, source=1)
                else:
                    yield from comm.recv(buf, source=0)
                    yield from comm.send(payload, dest=0)
            return None

    cluster.run(program)
    return cluster


def breakdown(
    stack: str,
    msg_size: int,
    mode: str = "polling",
    reps: int = 4,
    params=None,
    seed: int = 0,
    allow_truncated: bool = False,
    fault_plan=None,
):
    """Per-phase latency decomposition of a ping-pong (paper Fig 10).

    Runs :func:`capture` and attributes each data message's end-to-end
    time to the seven :data:`PHASES`.  Returns ``(summary, breakdowns)``
    where ``summary`` is the JSON-able output of :func:`summarize` over
    the data messages only (control traffic — barrier, rendezvous
    handshake — is excluded by size).  Most meaningful at eager sizes,
    where one message is one frame.  With ``mode="interrupt"`` the
    hysteresis dwell lands in the ``interrupt`` phase.
    """
    cluster = capture(stack, msg_size, mode=mode, reps=reps, params=params,
                      seed=seed, fault_plan=fault_plan)
    if stack == "native":
        downs = pipes_breakdowns(cluster.tracer, allow_truncated=allow_truncated)
    else:
        downs = lapi_breakdowns(cluster.tracer, allow_truncated=allow_truncated)
    data = [b for b in downs if b.bytes == msg_size]
    return summarize(data), data
