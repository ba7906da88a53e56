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

Both the breakdowns and :mod:`repro.obs.spans` read one :class:`Leg`
per LAPI active message or native frame, built by :func:`build_legs`:
the one place that decides which record closes which phase.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Optional

from repro.trace import TraceRecord, Tracer

__all__ = [
    "Breakdown",
    "CAPTURE_MODES",
    "Leg",
    "PHASES",
    "TruncatedTraceError",
    "breakdown",
    "build_legs",
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


def _check_dropped(tracer: Tracer, allow_truncated: bool, caller: str) -> None:
    """Refuse a truncated capture, or warn that ``caller``'s results are
    partial; repeats are deduplicated by the ``warnings`` filters."""
    if tracer.dropped == 0:
        return
    if not allow_truncated:
        dominant = ""
        if tracer.dropped_by_layer:
            layer, n = tracer.dropped_by_layer.most_common(1)[0]
            dominant = f"; layer {layer!r} dominated the loss ({n}/{tracer.dropped})"
        raise TruncatedTraceError(
            f"tracer dropped {tracer.dropped} record(s) (capacity "
            f"{tracer.capacity}){dominant}; {caller} would be incomplete — "
            "raise the capacity or pass allow_truncated=True"
        )
    warnings.warn(
        f"{caller} read a truncated trace "
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


# ------------------------------------------------------------------ legs
#: LAPI-layer events on the target of one active message
_LAPI_RX = ("hdr_handler", "msg_complete", "cmpl_done", "cmpl_inline",
            "cmpl_queued_to_thread", "cmpl_thread_run")
#: native frame kinds that carry message payload (vs control frames)
_DATA_LEGS = ("eager", "rdata")


def _first(records: list[TraceRecord], event: str) -> Optional[TraceRecord]:
    for r in records:
        if r.event == event:
            return r
    return None


class Leg:
    """One LAPI active message or native frame and the records it left.

    The single place where a send is paired with its receive side.
    Records belong to a leg by ``(node, src, number, mid)``: the number
    is the LAPI ``msg`` or the Pipes ``fid`` (both numbered per origin,
    so on more than two nodes the receive side needs ``src``); LAPI
    completion hand-offs carry no ``src`` and match on
    ``(node, number, mid)``, and a native data frame's completion is the
    MPCI ``msg_complete`` with its ``mid`` on the destination.

    Each Fig 10 mark is the chronologically first record of its kind,
    ``None`` while the capture does not hold it.  ``intr_us`` is the
    hysteresis dwell inside the dispatch window (arrival to header
    handler; to completion on native frames) and ``switch_us`` the
    switch into the completion thread; consumers do their own
    arithmetic with them.
    """

    __slots__ = ("send", "kind", "src", "dst", "number", "mid", "tx", "rx",
                 "t_hdr", "t_asm", "t_done", "queued", "marks", "records",
                 "intr_us", "switch_us")

    def __init__(self, send: TraceRecord, index: dict, switches: dict,
                 dwells: dict):
        f = send.fields
        self.send = send
        self.src = src = send.node
        self.mid = mid = f.get("mid")
        self.t_hdr = self.t_asm = self.t_done = None
        self.queued: Optional[TraceRecord] = None
        #: completion hand-off records other than ``queued``
        self.marks: list[TraceRecord] = []
        self.switch_us = 0.0
        if send.layer == "lapi":
            self.kind, field = "lapi", "msg"
            self.dst = dst = f["tgt"]
        else:
            self.kind, field = "pipes", "fid"
            self.dst = dst = f["dst"]
        self.number = num = f.get(field)
        self.tx = index.get((field, "tx", src, None, num, mid), [])
        got = index.get((field, "rx", dst, src, num, mid), [])
        self.rx = [r for r in got if r.event == "pkt_rx"]
        self.records = [send, *self.tx, *got]
        if self.kind == "lapi":
            hdr = _first(got, "hdr_handler")
            asm = _first(got, "msg_complete")
            done = _first(got, "cmpl_done")
            self.t_hdr = hdr.time if hdr else None
            self.t_asm = asm.time if asm else None
            self.t_done = done.time if done else None
            cmpl = index.get((field, "rx", dst, None, num, mid), [])
            self.queued = _first(cmpl, "cmpl_queued_to_thread")
            self.marks = [r for r in cmpl if r.event != "cmpl_queued_to_thread"]
            self.records += cmpl
            if self.t_asm is not None and self.t_done is not None:
                # the switch into the completion thread, if one was
                # charged while this message sat between assembly and its
                # done mark (zero on the enhanced variant and whenever the
                # thread was already hot)
                for r in switches.get(dst, ()):
                    if self.t_asm <= r.time <= self.t_done:
                        self.switch_us = min(r.fields["cost_us"],
                                             self.t_done - self.t_asm)
                        break
            window_end = self.t_hdr
        else:
            if f.get("t") in _DATA_LEGS and mid is not None:
                done = index.get(("mid", dst, mid), [])
                if done:
                    # native completion is inline in the dispatcher
                    self.t_asm = self.t_done = done[0].time
                    self.records += done
            window_end = self.t_asm
        # the receive-side hysteresis dwell (native ISR; a LAPI message
        # sees one only when both stacks share the node) is carved out of
        # the dispatch window
        t_rx = self.t_rx
        self.intr_us = 0.0
        if t_rx is not None and window_end is not None:
            self.intr_us = min(_dwell_overlap(dwells, dst, t_rx, window_end),
                               window_end - t_rx)

    @property
    def t_tx(self) -> Optional[float]:
        return self.tx[0].time if self.tx else None

    @property
    def t_rx(self) -> Optional[float]:
        return self.rx[0].time if self.rx else None

    @property
    def complete(self) -> bool:
        """Every mark of the leg's Fig 10 phases is in the capture."""
        return (None not in (self.t_tx, self.t_rx, self.t_asm, self.t_done)
                and (self.kind == "pipes" or self.t_hdr is not None))


def build_legs(tracer: Tracer) -> list[Leg]:
    """Every ``amsend``/``frame_send`` of the capture as a :class:`Leg`,
    in capture order, from one indexed pass over the records."""
    sends: list[TraceRecord] = []
    index: dict[tuple, list[TraceRecord]] = {}
    switches: dict[int, list[TraceRecord]] = {}
    dwells: dict[int, list[TraceRecord]] = {}
    for r in tracer.records:
        layer, event, f = r.layer, r.event, r.fields
        if layer == "adapter":
            if event == "pkt_tx" or event == "pkt_rx":
                side = "tx" if event == "pkt_tx" else "rx"
                for field in ("msg", "fid"):
                    if f.get(field) is not None:
                        key = (field, side, r.node, f.get("src"), f[field],
                               f.get("mid"))
                        index.setdefault(key, []).append(r)
        elif layer == "lapi":
            if event == "amsend":
                sends.append(r)
            elif event in _LAPI_RX:
                key = ("msg", "rx", r.node, f.get("src"), f.get("msg"),
                       f.get("mid"))
                index.setdefault(key, []).append(r)
        elif layer == "pipes":
            if event == "frame_send":
                sends.append(r)
        elif layer == "mpci":
            if event == "msg_complete":
                index.setdefault(("mid", r.node, f.get("mid")), []).append(r)
        elif layer == "cpu":
            if event == "ctx_switch" and f.get("to") == "cmpl":
                switches.setdefault(r.node, []).append(r)
            elif event == "hysteresis_dwell":
                dwells.setdefault(r.node, []).append(r)
    return [Leg(s, index, switches, dwells) for s in sends]


def _breakdown(leg: Leg) -> Breakdown:
    f = leg.send.fields
    start, intr, sw = leg.send.time, leg.intr_us, leg.switch_us
    t_tx, t_rx = leg.t_tx, leg.t_rx
    if leg.t_hdr is None:
        # native frames: per-packet processing and reordering copies
        # fill the whole delivery window
        hdr_us, copy_us = 0.0, (leg.t_asm - t_rx) - intr
    else:
        hdr_us, copy_us = (leg.t_hdr - t_rx) - intr, leg.t_asm - leg.t_hdr
    return Breakdown(
        src=leg.src,
        dst=leg.dst,
        key=leg.number if leg.kind == "lapi" else f["sid"],
        bytes=f.get("bytes", 0),
        start=start,
        end=leg.t_done,
        phases={
            "send_overhead": t_tx - start,
            "wire": t_rx - t_tx,
            "interrupt": intr,
            "hdr_handler": hdr_us,
            "copy": copy_us,
            "thread_switch": sw,
            "completion": leg.t_done - leg.t_asm - sw,
        },
        mid=leg.mid,
    )


def _breakdowns(tracer: Tracer, kind: str) -> list[Breakdown]:
    return [_breakdown(leg) for leg in build_legs(tracer)
            if leg.kind == kind and leg.complete]


def lapi_breakdowns(
    tracer: Tracer, allow_truncated: bool = False
) -> list[Breakdown]:
    """One :class:`Breakdown` per completed LAPI active message.

    Covers every ``amsend`` whose message reached ``cmpl_done`` on the
    target — MPI data messages and the thin-MPCI control messages alike
    (filter on ``bytes`` or count to isolate the data path).
    """
    _check_dropped(tracer, allow_truncated, "lapi_breakdowns")
    return _breakdowns(tracer, "lapi")


def pipes_breakdowns(
    tracer: Tracer, allow_truncated: bool = False
) -> list[Breakdown]:
    """One :class:`Breakdown` per completed native-stack data frame.

    Frames are matched to their MPCI completion through the
    cluster-unique message id the frame metadata carries, so only
    eager/rdata frames (the ones that complete a message) produce
    entries; bare control frames do not.  In interrupt mode the
    delivery window includes the ISR's hysteresis dwells (Fig 13); they
    are the ``interrupt`` phase, not part of ``copy``.
    """
    _check_dropped(tracer, allow_truncated, "pipes_breakdowns")
    return _breakdowns(tracer, "pipes")


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
    the fault campaigns; the program is the latency benches' own
    :func:`repro.bench.harness.pingpong_program`, without warmup.
    ``mode`` selects receive progress:

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
    from repro.bench.harness import pingpong_program
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
    cluster.run(pingpong_program(msg_size, reps, interrupt=(mode == "interrupt")))
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
