"""MPI-LAPI: the paper's new stack (Figs. 3–9) in its three generations.

Variant semantics (paper §4–5):

``base``
    Every message completion — marking a receive complete, acknowledging
    a request-to-send, launching rendezvous data after the ack — runs in
    a LAPI *completion handler* on its separate thread, paying a context
    switch each way.

``counters``
    Eager-protocol data completions are signalled through LAPI *target
    counters* whose addresses were exchanged at initialisation; the
    dispatcher increments them in-context, so no thread switch.  The
    rendezvous control steps still need completion handlers (receiving a
    request-to-send does not mean the data may be sent, §5.2).

``enhanced``
    LAPI is extended to run predefined completion handlers in the
    dispatcher's own context (§5.3); nothing pays the thread switch.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.lapi import Lapi
from repro.lapi.buffers import ByteTarget, NullTarget
from repro.lapi.counters import Counter
from repro.mpi.backends.base import Backend, InMsg, PendingSend
from repro.mpi.protocol import EAGER
from repro.sim import Store

__all__ = ["LapiBackend", "VARIANTS"]

VARIANTS = ("base", "counters", "enhanced")


class _Pool:
    """One source's completion-counter pool (Counters variant).

    The pool's counter ids are reserved as one contiguous block when the
    backend is built, so every id (and what :meth:`LapiBackend.wire`
    hands the peer) matches eager allocation; slot ``k``'s counter and
    :class:`_Slot` are created the first time the slot is bound or its
    id is addressed.
    """

    __slots__ = ("backend", "cids", "_slots")

    def __init__(self, backend: "LapiBackend", src: int, n: int):
        self.backend = backend
        self._slots: list[Optional[_Slot]] = [None] * n
        self.cids = backend.lapi.reserve_counters(n, f"pool[{src}]", self._created)

    def __len__(self) -> int:
        return len(self._slots)

    def _created(self, k: int, cntr: Counter) -> None:
        self._slots[k] = _Slot(self.backend, self.cids[k], cntr)

    def __getitem__(self, k: int) -> "_Slot":
        slot = self._slots[k]
        if slot is None:
            self.backend.lapi.counter_by_id(self.cids[k])  # runs _created
            slot = self._slots[k]
        return slot


class _Slot:
    """One completion-counter pool slot (Counters variant)."""

    __slots__ = ("backend", "cid", "cntr", "fifo", "_busy")

    def __init__(self, backend: "LapiBackend", cid: int, cntr: Counter):
        self.backend = backend
        self.cid = cid
        self.cntr = cntr
        self.fifo: deque[InMsg] = deque()
        self._busy = False
        cntr.subscribe(self._on_change)

    def bind(self, msg: InMsg) -> None:
        self.fifo.append(msg)
        self._drain()

    def _on_change(self, _cntr: Counter) -> None:
        self._drain()

    def _drain(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            while self.cntr.value > 0 and self.fifo:
                self.cntr.sub(1)
                self.backend._data_complete(self.fifo.popleft())
        finally:
            self._busy = False


class LapiBackend(Backend):
    """MPCI-thin over LAPI (paper Fig. 1c)."""

    def __init__(self, env, cpu, params, stats, task_id, num_tasks,
                 lapi: Lapi, variant: str = "enhanced"):
        super().__init__(env, cpu, params, stats, task_id, num_tasks)
        if variant not in VARIANTS:
            raise ValueError(f"unknown MPI-LAPI variant {variant!r}")
        if variant == "enhanced" and not lapi.enhanced:
            raise ValueError("enhanced variant requires an enhanced LAPI")
        if variant != "enhanced" and lapi.enhanced:
            raise ValueError(f"{variant} variant must run on stock LAPI")
        self.lapi = lapi
        self.hal = lapi.hal
        self.idle = lapi.flows.idle
        self.variant = variant
        self.name = f"lapi-{variant}"

        # matching-order state (announcements processed in per-source
        # send order so MPI's non-overtaking rule survives packet races)
        self._expected: dict[int, int] = {}
        self._pending_ann: dict[int, dict[int, InMsg]] = {}

        # Counters variant: per-source completion-counter pools
        self._pools: dict[int, _Pool] = {}
        if variant == "counters":
            for src in range(num_tasks):
                if src != task_id:
                    self._pools[src] = _Pool(self, src, params.counter_pool_slots)
        #: sender-side view of each peer's pool counter ids (filled by wire())
        self._peer_slot_ids: dict[int, list[int]] = {}

        self._ctrlq = Store(env, name=f"be{task_id}.ctrl")
        env.process(self._ctrl_engine(), name=f"be{task_id}.ctrl")

        lapi.register_handler("mpi_eager", self._hh_eager)
        lapi.register_handler("mpi_rts", self._hh_rts)
        lapi.register_handler("mpi_rts_ack", self._hh_rts_ack)
        lapi.register_handler("mpi_rdata", self._hh_rdata)
        lapi.register_handler("mpi_bfree", self._hh_bfree)

    # ------------------------------------------------------------ wiring
    def wire(self, peers: dict[int, "LapiBackend"]) -> None:
        """Exchange counter-pool addresses (paper §5.2: done at init)."""
        if self.variant != "counters":
            return
        for dst, peer in peers.items():
            if dst == self.task_id:
                continue
            self._peer_slot_ids[dst] = list(peer._pools[self.task_id].cids)

    # ---------------------------------------------------------- plumbing
    def progress(self, thread: str) -> Generator:
        return (yield from self.lapi.dispatch(thread))

    def set_interrupt_mode(self, enabled: bool) -> None:
        self.lapi.senv("INTERRUPT_SET", enabled)

    def make_rma_engine(self):
        from repro.mpi.rma import LapiRmaEngine

        return LapiRmaEngine(self)

    def _ctrl_engine(self) -> Generator:
        """Sends control messages queued from synchronous contexts."""
        while True:
            dst, hh, uhdr = yield self._ctrlq.get()
            yield from self.lapi.amsend("user", dst, hh, uhdr,
                                        mid=uhdr.get("mid"))

    # ------------------------------------------------------------- sends
    def isend(self, thread, data: bytes, dst_task: int, src_rank: int, tag: int,
              context: int, mode: str, blocking: bool = False) -> Generator:
        req, proto, uhdr = yield from self._start_send(
            thread, data, dst_task, src_rank, tag, context, mode)
        size, mid, want_bfree = uhdr["size"], uhdr["mid"], uhdr["bfree"]
        if proto == EAGER:
            pool = self._peer_slot_ids.get(dst_task)  # Counters only
            tgt_cntr_id = pool[uhdr["mseq"] % len(pool)] if pool else None
            org = Counter(self.env, "org")
            yield from self.lapi.amsend(
                thread, dst_task, "mpi_eager", uhdr, data,
                tgt_cntr_id=tgt_cntr_id, org_cntr=org, mid=mid,
            )
            if want_bfree:
                req.complete(count=size)  # library owns the staged copy
            else:
                self._complete_when(org.changed(), req, size)
        else:
            uhdr["blocking"] = blocking and not want_bfree
            ps = PendingSend(data, dst_task, uhdr, req, uhdr["blocking"])
            self.pending_sends[uhdr["sid"]] = ps
            yield from self.lapi.amsend(thread, dst_task, "mpi_rts", uhdr,
                                        mid=mid)
            if want_bfree:
                req.complete(count=size)
            if ps.blocking:
                # Fig 6: wait for the ack here, then push the data from
                # the user thread
                yield from self._wait_acked(thread, ps)
                yield from self._launch_rdata(thread, ps)
        return req

    def _wait_acked(self, thread: str, ps: PendingSend) -> Generator:
        yield from self.poll_until(thread, lambda: ps.acked, ps.arm)

    def _launch_rdata(self, thread: str, ps: PendingSend) -> Generator:
        """Second rendezvous phase: ship the message like an eager send."""
        sid = ps.uhdr["sid"]
        org = Counter(self.env, "org")
        yield from self.lapi.amsend(
            thread,
            ps.dst_task,
            "mpi_rdata",
            {"sid": sid, "slot": ps.recv_slot, "size": len(ps.data),
             "bfree": ps.uhdr["bfree"], "mid": ps.uhdr.get("mid")},
            ps.data,
            tgt_cntr_id=ps.recv_slot,
            org_cntr=org,
            mid=ps.uhdr.get("mid"),
        )
        if not ps.req.done:
            self._complete_when(org.changed(), ps.req, len(ps.data))
        self.pending_sends.pop(sid, None)

    def _cmpl_launch_rdata(self, lapi: Lapi, thread: str, ps: PendingSend) -> Generator:
        """Fig 7: nonblocking rendezvous data launched from the completion
        handler of the rts-ack message."""
        yield from self._launch_rdata(thread, ps)

    # ----------------------------------------------------------- receives
    # perfbench/layers.py times ``vars(LapiBackend)["irecv"]``; drop this
    # alias together with that entry (ROADMAP)
    irecv = Backend.irecv

    def ack_rts(self, thread: str, msg: InMsg) -> Generator:
        yield from self.lapi.amsend(thread, msg.src_task, "mpi_rts_ack",
                                    self._rts_ack_hdr(msg), mid=msg.mid)

    def post_ctrl(self, dst_task: int, kind: str, hdr: dict) -> None:
        self._ctrlq.put((dst_task, f"mpi_{kind}", hdr))

    def _rts_ack_hdr(self, msg: InMsg) -> dict:
        """The rts-ack header; on Counters it names the pool slot whose
        counter the rendezvous data will bump."""
        pool = self._pools.get(msg.src_task)  # Counters only
        slot = pool.cids[msg.mseq % len(pool)] if pool is not None else None
        return {"sid": msg.sid, "slot": slot, "mid": msg.mid}

    # --------------------------------------------- matching (sync, in HH)
    def _announce(self, msg: InMsg) -> None:
        """Process message announcements in per-source send order.

        A first packet that raced ahead of its flow predecessors is
        *deferred*: its data goes to an EA buffer and its matching waits
        until the gap fills, preserving MPI's non-overtaking rule.
        """
        src = msg.src_task
        expected = self._expected.setdefault(src, 0)
        if msg.mseq != expected:
            self._c_deferred.value += 1
            if self.stats.tracer is not None:
                self.stats.trace("mpci", "announce_deferred", mseq=msg.mseq,
                                 expected=expected, mid=msg.mid)
            self._pending_ann.setdefault(src, {})[msg.mseq] = msg
            return
        self._match_now(msg, deferred=False)
        self._expected[src] = expected + 1
        pend = self._pending_ann.get(src)
        while pend:
            nxt = self._expected[src]
            nxt_msg = pend.pop(nxt, None)
            if nxt_msg is None:
                break
            self._match_now(nxt_msg, deferred=True)
            self._expected[src] = nxt + 1

    def _match_now(self, msg: InMsg, deferred: bool) -> None:
        """Run the arrival decision inside a header handler.

        A header handler cannot yield, so the decision commits at once
        and the match cost becomes a dispatcher charge applied after the
        handler returns.  For a matched request-to-send: when matched
        directly inside its own header handler (``deferred=False``), the
        acknowledgement is the job of the completion handler the header
        handler installs (paper Fig 4c); a deferred match sends it via
        the control engine.
        """
        inspected = self._arrive(msg)
        self.lapi.add_dispatch_charge(self.match_cost(inspected)
                                      + self.params.mpi_lock_us)
        if deferred and msg.req is not None and msg.proto == "rts":
            self.post_ctrl(msg.src_task, "rts_ack", self._rts_ack_hdr(msg))

    # ------------------------------------------------------ completion
    def _cmpl_mark(self, lapi: Lapi, thread: str, msg: InMsg) -> Generator:
        """Base/Enhanced completion handler: mark the message complete
        (paper Fig 3c)."""
        self._data_complete(msg)
        yield self.env.auto_timeout(0)

    def _cmpl_send_rts_ack(self, lapi: Lapi, thread: str, msg: InMsg) -> Generator:
        """Fig 4c: completion handler of a matched request-to-send."""
        yield from self.ack_rts(thread, msg)

    # ------------------------------------------------- header handlers
    def _hh_eager(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 3b: match; return the user buffer or an EA buffer."""
        msg = InMsg.from_header(uhdr, src_task)
        self._announce(msg)
        target = ByteTarget(self._landing(msg))
        if self.variant == "counters":
            # dispatcher will increment the slot counter in-context;
            # binding the message to the slot replaces the handler
            pool = self._pools[src_task]
            pool[msg.mseq % len(pool)].bind(msg)
            return target, None, msg
        return target, self._cmpl_mark, msg

    def _hh_rts(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 4b: header handler of the request-to-send."""
        msg = InMsg.from_header(uhdr, src_task)
        self._announce(msg)
        if msg.req is not None:
            # matched immediately: the ack is the completion handler's
            # job (Fig 4c) — threaded in base/counters, inline in enhanced
            return NullTarget(), self._cmpl_send_rts_ack, msg
        return NullTarget(), None, None

    def _hh_rts_ack(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 7: request-to-send acknowledged."""
        ps = self.pending_sends.get(uhdr["sid"])
        if ps is None:
            return NullTarget(), None, None
        if self.stats.tracer is not None:
            self.stats.trace("mpci", "rts_acked", sid=uhdr["sid"],
                             blocking=ps.blocking, mid=ps.uhdr.get("mid"))
        ps.recv_slot = uhdr.get("slot")
        if ps.blocking:
            ps.acked = True
            if ps.waiter is not None and not ps.waiter.triggered:
                ps.waiter.succeed()
            return NullTarget(), None, None
        return NullTarget(), self._cmpl_launch_rdata, ps

    def _hh_rdata(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Second-phase rendezvous data: receive straight into the bound
        user buffer (no matching needed)."""
        msg = self._claim_rdata(src_task, uhdr)
        target = ByteTarget(msg.req.ctx)
        if self.variant == "counters":
            pool = self._pools[src_task]
            pool[uhdr["slot"] - pool.cids.start].bind(msg)
            return target, None, msg
        return target, self._cmpl_mark, msg

    def _hh_bfree(self, lapi: Lapi, src_task: int, uhdr: dict, mlen: int):
        """Fig 8: receiver reports full receipt; free attached-buffer space."""
        self._release_attached(uhdr["sid"])
        return NullTarget(), None, None
