"""Causal, cross-node span trees for individual MPI messages.

The trace layer (``repro.trace``) captures flat per-node event records;
the breakdown layer (``repro.obs.breakdown``) averages them into the
paper's Fig 10 phases.  This module reconstructs the *causal story of a
single message*: every MPI send mints a cluster-unique message id
(``<task>:<sid>``, see ``Backend.mint_mid``) that rides every packet
header and trace record the message generates — on the origin, the
wire, and the target.  From one :class:`~repro.trace.Tracer` capture,
:func:`build_span_trees` groups records by that id and rebuilds, per
message, a tree of :class:`Span` s:

* the **root** spans the whole MPI-level exchange (eager data, or the
  rendezvous rts → rts_ack/cts → rdata → bfree conversation);
* one **leg** per LAPI active message / native MPCI frame, drawn from
  the same :class:`~repro.obs.breakdown.Leg` records the breakdowns
  read (this module pairs no records itself);
* **leaf** spans under each leg mirror the Fig 10 phase partition
  exactly (``send_overhead``/``wire``/``interrupt``/``hdr_handler``/
  ``copy``/``thread_switch``/``completion``), so the sum of a tree's
  leaf durations equals the breakdown end-to-end total for the same
  message — the two views are provably consistent;
* zero-duration **instants** pin auxiliary records (matching outcomes,
  per-packet tx/rx beyond the first, completion hand-offs) onto the
  leg whose interval contains them.

Each span carries a logical *actor track* (``user``, ``dispatcher``,
``cmpl``, or ``wire``) so exporters can lay one timeline row per actor
per node — see ``repro.obs.chrometrace`` for the Perfetto/Chrome
exporter and :func:`render_text` for a plain-text timeline.

Every record carrying the message id is consumed: records that fit no
leg structurally are attached to the root and reported in
``MessageTree.orphans`` so tests can assert complete coverage.
Reconstruction is pure and deterministic — the same capture always
yields byte-identical renderings.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.breakdown import _DATA_LEGS, Leg, _check_dropped, build_legs
from repro.trace import TraceRecord, Tracer

__all__ = ["MessageTree", "Span", "build_span_trees", "render_text"]

#: logical actor tracks a span can live on
TRACKS = ("user", "dispatcher", "cmpl", "wire")


class Span:
    """One node (interval or instant) of a message's causal tree."""

    __slots__ = ("name", "node", "track", "start", "end", "children", "args")

    def __init__(self, name: str, node: Optional[int], track: str,
                 start: float, end: float,
                 args: Optional[dict[str, Any]] = None):
        self.name = name
        self.node = node  # None for fabric/wire spans
        self.track = track
        self.start = start
        self.end = end
        self.children: list["Span"] = []
        self.args = args or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start

    def add(self, child: "Span") -> "Span":
        self.children.append(child)
        return child

    def leaves(self) -> list["Span"]:
        """Descendants with no children, depth-first."""
        if not self.children:
            return [self]
        out: list[Span] = []
        for c in self.children:
            out.extend(c.leaves())
        return out

    def walk(self, depth: int = 0):
        yield self, depth
        for c in self.children:
            yield from c.walk(depth + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name!r}, n{self.node}, {self.track}, "
                f"{self.start:.2f}..{self.end:.2f}, "
                f"{len(self.children)} children)")


class MessageTree:
    """The reconstructed span tree for one message id."""

    __slots__ = ("mid", "root", "legs", "records", "orphans")

    def __init__(self, mid: str, root: Span):
        self.mid = mid
        self.root = root
        #: top-level leg spans in chronological order
        self.legs: list[Span] = []
        #: every trace record carrying this mid, in capture order
        self.records: list[TraceRecord] = []
        #: records that fit no leg structurally (attached to the root)
        self.orphans: list[TraceRecord] = []

    @property
    def leaf_total(self) -> float:
        """Sum of leaf span durations (== breakdown end-to-end total)."""
        return sum(s.duration for s in self.root.leaves())

    @property
    def complete(self) -> bool:
        return not any(leg.args.get("partial") for leg in self.legs)


# ---------------------------------------------------------------- helpers
def _actor_of(thread: Optional[str]) -> str:
    """Map a CPU thread name onto the logical actor track."""
    if thread is None:
        return "dispatcher"
    if thread == "cmpl":
        return "cmpl"
    if thread.startswith("irq"):
        return "dispatcher"
    return "user"


def _instant(leg: Span, r: TraceRecord, track: Optional[str] = None) -> None:
    leg.add(Span(r.event, r.node, track or _actor_of(r.fields.get("thr")),
                 r.time, r.time, args=dict(r.fields)))


def _phase_leaves(span: Span, leg: Leg) -> None:
    """Emit the telescoping Fig 10 phase leaves of ``leg`` under ``span``.

    Missing marks truncate the chain (partial legs of in-flight
    messages); emitted leaves always telescope so their durations sum to
    the covered interval exactly.
    """
    src, dst, t_send = leg.src, leg.dst, leg.send.time
    t_tx, t_rx, t_hdr, t_asm, t_done = (leg.t_tx, leg.t_rx, leg.t_hdr,
                                        leg.t_asm, leg.t_done)
    intr_us, switch_us = leg.intr_us, leg.switch_us
    cmpl_track = "cmpl" if leg.queued is not None else "dispatcher"
    span.add(Span("send_overhead", src, _actor_of(leg.send.fields.get("thr")),
                  t_send, t_tx if t_tx is not None else t_send))
    if t_tx is None:
        return
    span.add(Span("wire", None, "wire", t_tx, t_rx if t_rx is not None else t_tx))
    if t_rx is None:
        return
    if t_hdr is not None:
        span.add(Span("interrupt", dst, "dispatcher", t_rx, t_rx + intr_us))
        span.add(Span("hdr_handler", dst, "dispatcher", t_rx + intr_us, t_hdr))
        if t_asm is None:
            return
        span.add(Span("copy", dst, "dispatcher", t_hdr, t_asm))
    else:
        # native frames have no header-handler mark: the whole
        # delivery window is interrupt dwell + per-packet copies
        if t_asm is None:
            return
        span.add(Span("interrupt", dst, "dispatcher", t_rx, t_rx + intr_us))
        span.add(Span("copy", dst, "dispatcher", t_rx + intr_us, t_asm))
    if t_done is None or t_done == t_asm:
        return
    span.add(Span("thread_switch", dst, cmpl_track, t_asm, t_asm + switch_us))
    span.add(Span("completion", dst, cmpl_track, t_asm + switch_us, t_done))


def _leg_span(leg: Leg) -> Span:
    """Draw one leg: its Fig 10 phase leaves, then its instants."""
    send, lapi = leg.send, leg.kind == "lapi"
    f = send.fields
    if lapi:
        name = f.get("hh", "lapi")
        if name.startswith("mpi_"):
            name = name[len("mpi_"):]
        partial = leg.t_done is None
    else:
        name = f.get("t", "frame")
        partial = leg.t_asm is None if name in _DATA_LEGS else leg.t_rx is None
    marks = [t for t in (leg.t_tx, leg.t_rx, leg.t_hdr, leg.t_asm) if t is not None]
    end = leg.t_done if lapi and leg.t_done is not None else max([send.time] + marks)
    span = Span(name, leg.src, _actor_of(f.get("thr")), send.time, end,
                args={"mid": leg.mid, "msg" if lapi else "fid": leg.number,
                      "src": leg.src, "dst": leg.dst, "bytes": f.get("bytes", 0),
                      "kind": leg.kind})
    if partial:
        span.args["partial"] = True
    _phase_leaves(span, leg)
    # per-packet instants beyond the first, and completion hand-off marks
    for r in leg.tx[1:]:
        _instant(span, r, "user")
    for r in leg.rx[1:]:
        _instant(span, r, "dispatcher")
    if leg.queued is not None:
        _instant(span, leg.queued)
    for r in leg.marks:
        _instant(span, r)
    return span


# ------------------------------------------------------------ tree build
def _build_tree(mid: str, recs: list[TraceRecord], built: list[Leg]) -> MessageTree:
    used = {id(r) for leg in built for r in leg.records}
    legs = [_leg_span(leg) for leg in built]
    legs.sort(key=lambda s: (s.start, s.args.get("msg", s.args.get("fid", 0))))

    start = min([s.start for s in legs] + [r.time for r in recs]) if recs else 0.0
    end = max([s.end for s in legs] + [r.time for r in recs]) if recs else 0.0
    root = Span(f"msg {mid}", legs[0].node if legs else None, "user",
                start, end, args={"mid": mid})
    tree = MessageTree(mid, root)
    tree.records = list(recs)
    tree.legs = legs
    for leg in legs:
        root.add(leg)

    # attach leftover records to the leg whose interval contains them;
    # true orphans hang off the root and are reported
    for r in recs:
        if id(r) in used:
            continue
        home = None
        for leg in legs:
            nodes = (leg.args.get("src"), leg.args.get("dst"))
            if r.node in nodes and leg.start <= r.time <= leg.end:
                home = leg
                break
        if home is not None:
            _instant(home, r)
        else:
            _instant(root, r)
            tree.orphans.append(r)
    return tree


def build_span_trees(
    tracer: Tracer, allow_truncated: bool = False
) -> dict[str, MessageTree]:
    """Reconstruct one :class:`MessageTree` per message id in the capture.

    Deterministic: trees are keyed and ordered by message id.  Raises
    :class:`~repro.obs.breakdown.TruncatedTraceError` when the tracer
    dropped records (unless ``allow_truncated``), since a truncated
    capture cannot promise complete trees.
    """
    _check_dropped(tracer, allow_truncated, "build_span_trees")
    by_mid: dict[str, list[TraceRecord]] = {}
    for r in tracer.records:
        mid = r.fields.get("mid")
        if mid is not None:
            by_mid.setdefault(mid, []).append(r)
    legs: dict[str, list[Leg]] = {}
    for leg in build_legs(tracer):
        if leg.mid is not None:
            legs.setdefault(leg.mid, []).append(leg)

    def _mid_key(m: str):
        task, _, sid = m.partition(":")
        try:
            return (int(task), int(sid))
        except ValueError:  # foreign mid formats sort lexically at the end
            return (1 << 30, m)

    return {
        mid: _build_tree(mid, by_mid[mid], legs.get(mid, []))
        for mid in sorted(by_mid, key=_mid_key)
    }


# ---------------------------------------------------------------- render
def render_text(trees: dict[str, MessageTree]) -> str:
    """Plain-text timeline/flamegraph dump of the reconstructed trees.

    Deterministic: the same capture always renders byte-identically.
    """
    lines: list[str] = []
    for mid, tree in trees.items():
        root = tree.root
        lines.append(
            f"msg {mid}  [{root.start:10.2f} .. {root.end:10.2f}us]  "
            f"span={root.duration:.2f}us  legs={len(tree.legs)}"
            + ("" if tree.complete else "  (partial)")
        )
        for span, depth in root.walk():
            if span is root:
                continue
            pad = "  " * depth
            where = f"n{span.node}" if span.node is not None else "--"
            if span.is_instant:
                lines.append(
                    f"{pad}· {span.name} @ {span.start:.2f}us "
                    f"[{where}/{span.track}]"
                )
            else:
                lines.append(
                    f"{pad}{span.name:<14s} [{where}/{span.track:<10s}] "
                    f"{span.start:10.2f} .. {span.end:10.2f}  "
                    f"({span.duration:.2f}us)"
                )
        if tree.orphans:
            lines.append(f"  ! {len(tree.orphans)} orphan record(s)")
    return "\n".join(lines) + "\n"
