"""The LAPI library: one instance per task.

Threading model (paper §3/§5): header handlers run in the context that
drives the dispatcher (the polling thread, or the interrupt context);
completion handlers run on a **separate thread** — entering it costs a
context switch, which §5 identifies as the dominant overhead of the Base
MPI-LAPI.  With ``enhanced=True`` (the paper's §5.3 LAPI extension),
completion handlers are executed in the dispatcher's own context.

Header handlers MUST NOT call LAPI functions (enforced: doing so raises
:class:`LapiError`); completion handlers may.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Generator, Optional

from repro.hal import Hal, fragment
from repro.lapi.buffers import ByteTarget, NullTarget
from repro.lapi.counters import Counter
from repro.machine.cpu import Cpu
from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.sim import AnyOf, Environment, Event, Store
from repro.transport import ReceiverLedger, SenderWindow

__all__ = ["Lapi", "LapiError"]

_DATA = "lapi"
_ACK = "lapi_ack"

#: Rmw operations (LAPI_Rmw)
RMW_OPS = ("FETCH_AND_ADD", "FETCH_AND_OR", "SWAP", "COMPARE_AND_SWAP")


class LapiError(RuntimeError):
    """Misuse of the LAPI interface."""


class _FlowTx:
    __slots__ = ("window", "waiters", "last_progress", "rto_alive")

    def __init__(self, window_pkts: int):
        self.window = SenderWindow(window_pkts)
        self.waiters: list[Event] = []
        self.last_progress = 0.0
        self.rto_alive = False


class _FlowRx:
    __slots__ = ("ledger", "since_ack", "ack_timer_alive")

    def __init__(self):
        self.ledger = ReceiverLedger()
        self.since_ack = 0
        self.ack_timer_alive = False


class _Assembly:
    """Reassembly state for one incoming LAPI message."""

    __slots__ = (
        "src",
        "msg_no",
        "mid",
        "mlen",
        "received",
        "target",
        "stash",
        "cmpl_fn",
        "cmpl_data",
        "cmpl_inline_always",
        "tgt_cntr_id",
        "want_cmpl",
        "header_seen",
        "done",
    )

    def __init__(self, src: int, msg_no: int):
        self.src = src
        self.msg_no = msg_no
        self.mid: Optional[str] = None
        self.mlen = -1
        self.received = 0
        self.target = None
        #: chunks that raced ahead of the header packet: (offset, payload)
        #: where payload may be a read-only view of the sender's snapshot
        self.stash: list[tuple[int, bytes]] = []
        self.cmpl_fn: Optional[Callable[..., Generator]] = None
        self.cmpl_data: Any = None
        self.cmpl_inline_always = False
        self.tgt_cntr_id: Optional[int] = None
        self.want_cmpl = False
        self.header_seen = False
        self.done = False


class _SendDesc:
    """One Amsend queued at the origin's transmit engine."""

    __slots__ = (
        "dst",
        "hdr_hdl",
        "uhdr",
        "udata",
        "msg_no",
        "mid",
        "tgt_cntr_id",
        "org_cntr",
        "want_cmpl",
    )

    def __init__(self, dst, hdr_hdl, uhdr, udata, msg_no, mid, tgt_cntr_id, org_cntr, want_cmpl):
        self.dst = dst
        self.hdr_hdl = hdr_hdl
        self.uhdr = uhdr
        self.udata = udata
        self.msg_no = msg_no
        self.mid = mid
        self.tgt_cntr_id = tgt_cntr_id
        self.org_cntr = org_cntr
        self.want_cmpl = want_cmpl


class Lapi:
    """One task's LAPI endpoint.

    Header handlers are registered by name with :meth:`register_handler`;
    an ``LAPI_Amsend`` names the handler to run at the target (the real
    library passes a function pointer).

    A handler has signature ``fn(lapi, src, uhdr, mlen) -> (target,
    cmpl_fn, cmpl_data)`` where ``target`` is a :class:`ByteTarget` /
    :class:`NullTarget` / ``None`` and ``cmpl_fn(lapi, thread, data)`` is
    a generator run at message completion.
    """

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        hal: Hal,
        params: MachineParams,
        stats: NodeStats,
        task_id: int,
        num_tasks: int,
        enhanced: bool = False,
    ):
        self.env = env
        self.cpu = cpu
        self.hal = hal
        self.params = params
        self.stats = stats
        self.task_id = task_id
        self.num_tasks = num_tasks
        self.enhanced = enhanced
        #: fault hook (:class:`repro.faults.FaultPoint`) for dispatcher
        #: stalls; installed by the cluster, ``None`` otherwise
        self.faults = None

        self._handlers: dict[str, Callable] = {}
        self._inline_always: set[str] = set()
        self._counters: dict[int, Counter] = {}
        self._cntr_ids = itertools.count(1)
        #: id blocks whose counters are built on first use (reserve_counters)
        self._reserved: list[tuple[range, str, Callable[[int, Counter], None]]] = []
        self._addresses: dict[str, Any] = {}

        self._flow_tx: dict[int, _FlowTx] = {}
        self._flow_rx: dict[int, _FlowRx] = {}
        self._assemblies: dict[tuple[int, int], _Assembly] = {}
        self._msg_nos = itertools.count()
        self._txq = Store(env, name=f"lapi{task_id}.txq")
        self._tx_outstanding = 0  # descriptors queued but not fully windowed
        self._quiesce_waiters: list[Event] = []

        self._cmplq = Store(env, name=f"lapi{task_id}.cmplq")
        self._in_hdr_handler = False
        #: extra dispatcher CPU time requested by a header handler (header
        #: handlers are synchronous, so they cannot charge time themselves;
        #: e.g. MPI matching-queue searches add cost this way)
        self._pending_charge_us = 0.0
        #: origin (tgt, msg_no) -> completion counter awaiting the echo
        self._pending_cmpl: dict[tuple[int, int], Counter] = {}

        # one-sided support state
        self._pending_get: dict[int, tuple[memoryview, Optional[Counter]]] = {}
        self._pending_rmw: dict[int, dict] = {}
        self._rmw_ids = itertools.count()
        self._get_ids = itertools.count()
        self._gfence_seen: dict[int, set[int]] = {}
        self._gfence_epoch = 0

        # observability: per-op counters and the in-flight-packet gauge
        # live in the node's metrics registry (shared via NodeStats)
        self.metrics = stats.registry
        self._m_amsend = self.metrics.counter("lapi.amsend")
        self._m_put = self.metrics.counter("lapi.put")
        self._m_get = self.metrics.counter("lapi.get")
        self._m_rmw = self.metrics.counter("lapi.rmw")
        self._m_dispatch = self.metrics.counter("lapi.dispatch_pkts")
        self._g_inflight = self.metrics.gauge("lapi.pkts_in_flight")

        self._register_internal_handlers()
        env.process(self._tx_engine(), name=f"lapi{task_id}.tx")
        env.process(self._cmpl_thread(), name=f"lapi{task_id}.cmpl")

    # =================================================== registration
    def register_handler(
        self, name: str, fn: Callable, inline_always: bool = False
    ) -> None:
        """Register a header handler under ``name``.

        ``inline_always`` marks library-internal handlers whose completion
        runs in dispatcher context regardless of the enhanced flag (the
        real library's internal ops never pay the thread switch).
        """
        if name in self._handlers:
            raise LapiError(f"handler {name!r} already registered")
        self._handlers[name] = fn
        if inline_always:
            self._inline_always.add(name)

    def create_counter(self, name: str = "cntr", initial: int = 0) -> tuple[int, Counter]:
        """Allocate a counter addressable from remote tasks by id."""
        cid = next(self._cntr_ids)
        cntr = Counter(self.env, name=f"t{self.task_id}.{name}", initial=initial)
        self._counters[cid] = cntr
        return cid, cntr

    def reserve_counters(self, n: int, name: str,
                         on_create: Callable[[int, Counter], None]) -> range:
        """Reserve ``n`` contiguous counter ids without building counters.

        The ids are exactly those ``n`` calls to :meth:`create_counter`
        would return.  Counter ``k`` of the block (named ``name[k]``) is
        created the first time its id is looked up, locally or by a
        remote update; ``on_create(k, counter)`` runs right then.
        """
        start = next(self._cntr_ids)
        self._cntr_ids = itertools.count(start + n)
        ids = range(start, start + n)
        self._reserved.append((ids, name, on_create))
        return ids

    def counter_by_id(self, cid: int) -> Counter:
        cntr = self._lookup_counter(cid)
        if cntr is None:
            raise KeyError(cid)
        return cntr

    def _lookup_counter(self, cid: int) -> Optional[Counter]:
        cntr = self._counters.get(cid)
        if cntr is None:
            for ids, name, on_create in self._reserved:
                if cid in ids:
                    k = cid - ids.start
                    cntr = Counter(self.env, name=f"t{self.task_id}.{name}[{k}]")
                    self._counters[cid] = cntr
                    on_create(k, cntr)
                    break
        return cntr

    def address_init(self, name: str, obj: Any) -> None:
        """LAPI_Address_init: publish a local object under ``name``.

        Remote Put/Get/Rmw refer to it by name (the real call exchanges
        raw addresses; names are this model's addresses).
        """
        self._addresses[name] = obj

    def address_fini(self, name: str) -> None:
        """Retire a published address (window free); unknown names are a
        no-op so shutdown paths stay idempotent."""
        self._addresses.pop(name, None)

    def resolve_address(self, name: str) -> Any:
        try:
            return self._addresses[name]
        except KeyError:
            raise LapiError(f"task {self.task_id}: unknown address {name!r}") from None

    # =================================================== environment
    def qenv(self, what: str) -> Any:
        """LAPI_Qenv."""
        table = {
            "TASK_ID": self.task_id,
            "NUM_TASKS": self.num_tasks,
            "MAX_UHDR_SZ": 960,
            "MAX_DATA_SZ": 1 << 30,
            "INTERRUPT_SET": self.hal.adapter.interrupt_mode,
            "ENHANCED": self.enhanced,
        }
        try:
            return table[what]
        except KeyError:
            raise LapiError(f"unknown Qenv key {what!r}") from None

    def senv(self, what: str, value: Any) -> None:
        """LAPI_Senv: currently INTERRUPT_SET (the paper toggles it)."""
        if what == "INTERRUPT_SET":
            if value:
                self.hal.adapter.set_interrupt_handler(lambda _a: self._isr())
            self.hal.adapter.set_interrupt_mode(bool(value))
        else:
            raise LapiError(f"unknown Senv key {what!r}")

    # ==================================================== Amsend core
    def amsend(
        self,
        thread: str,
        tgt: int,
        hdr_hdl: str,
        uhdr: dict[str, Any],
        udata: bytes = b"",
        tgt_cntr_id: Optional[int] = None,
        org_cntr: Optional[Counter] = None,
        cmpl_cntr: Optional[Counter] = None,
        mid: Optional[str] = None,
    ) -> Generator:
        """LAPI_Amsend: active-message send (non-blocking).

        Returns once the message is handed to the transmit engine; use
        the counters to learn about buffer reuse / completion.  ``mid``
        is an optional caller-assigned message id carried on every
        packet and trace record of this message (MPI-LAPI threads its
        cluster-unique message id through here so captures on both
        nodes correlate — see ``repro.obs.spans``).
        """
        self._check_not_in_header_handler("LAPI_Amsend")
        if tgt == self.task_id:
            raise LapiError("LAPI does not loop back to self")
        yield from self.cpu.execute(thread, self.params.lapi_call_us)
        msg_no = next(self._msg_nos)
        self._m_amsend.incr()
        self.stats.trace("lapi", "amsend", tgt=tgt, hh=hdr_hdl, msg=msg_no,
                         bytes=len(udata), mid=mid, thr=thread)
        want_cmpl = cmpl_cntr is not None
        if want_cmpl:
            # origin-side registration so the _cmpl echo can find it
            self._pending_cmpl[(tgt, msg_no)] = cmpl_cntr
        self._tx_outstanding += 1
        # Immutable payloads (bytes, read-only views) are queued as-is —
        # zero-copy; anything mutable is snapshotted so retransmits stay
        # byte-stable even if the caller reuses the buffer.
        if not (isinstance(udata, bytes)
                or (isinstance(udata, memoryview) and udata.readonly)):
            udata = bytes(udata)
        self._txq.put(
            _SendDesc(tgt, hdr_hdl, uhdr, udata, msg_no, mid, tgt_cntr_id, org_cntr, want_cmpl)
        )

    def put(
        self,
        thread: str,
        tgt: int,
        tgt_name: str,
        tgt_off: int,
        data: bytes,
        tgt_cntr_id: Optional[int] = None,
        org_cntr: Optional[Counter] = None,
        cmpl_cntr: Optional[Counter] = None,
        mid: Optional[str] = None,
    ) -> Generator:
        """LAPI_Put: one-sided write into a published remote buffer."""
        self._m_put.incr()
        yield from self.amsend(
            thread,
            tgt,
            "_lapi_put",
            {"name": tgt_name, "off": tgt_off},
            data,
            tgt_cntr_id=tgt_cntr_id,
            org_cntr=org_cntr,
            cmpl_cntr=cmpl_cntr,
            mid=mid,
        )

    def get(
        self,
        thread: str,
        tgt: int,
        tgt_name: str,
        tgt_off: int,
        nbytes: int,
        local_buf,
        org_cntr: Optional[Counter] = None,
        tgt_cntr_id: Optional[int] = None,
        mid: Optional[str] = None,
    ) -> Generator:
        """LAPI_Get: one-sided read; ``org_cntr`` fires when data lands.

        ``tgt_cntr_id`` (if given) increments at the target once the
        request has been served — i.e. the reply data has been captured,
        so the target may safely modify the buffer afterwards.
        """
        self._m_get.incr()
        gid = next(self._get_ids)
        self._pending_get[gid] = (memoryview(local_buf), org_cntr)
        yield from self.amsend(
            thread,
            tgt,
            "_lapi_get_req",
            {"name": tgt_name, "off": tgt_off, "n": nbytes, "gid": gid,
             "origin": self.task_id},
            tgt_cntr_id=tgt_cntr_id,
            mid=mid,
        )

    def rmw(
        self,
        thread: str,
        tgt: int,
        tgt_name: str,
        op: str,
        in_value: int,
        prev_cntr: Optional[Counter] = None,
        compare_value: Optional[int] = None,
        tgt_off: Optional[int] = None,
        tgt_cntr_id: Optional[int] = None,
    ) -> Generator:
        """LAPI_Rmw: remote atomic; result arrives via :meth:`rmw_result`.

        ``prev_cntr`` fires when the previous value is available.  The
        target word is ``<published object>.value`` by default; with
        ``tgt_off`` it is the 64-bit little-endian word at that byte
        offset of the published buffer (accessed via the object's
        ``read_word``/``write_word``).  Atomicity holds in both cases:
        the read-modify-write runs synchronously inside the target's
        header handler, and the transport's duplicate suppression makes
        it exactly-once under packet loss and retransmission.
        """
        if op not in RMW_OPS:
            raise LapiError(f"unknown Rmw op {op!r}")
        if tgt == self.task_id:
            raise LapiError("LAPI does not loop back to self")
        self._m_rmw.incr()
        rid = next(self._rmw_ids)
        self._pending_rmw[rid] = {"done": False, "prev": None, "cntr": prev_cntr}
        yield from self.amsend(
            thread,
            tgt,
            "_lapi_rmw_req",
            {
                "name": tgt_name,
                "op": op,
                "val": in_value,
                "cmp": compare_value,
                "rid": rid,
                "origin": self.task_id,
                "toff": tgt_off,
            },
            tgt_cntr_id=tgt_cntr_id,
        )
        return rid

    def rmw_result(self, rid: int) -> tuple[bool, Optional[int]]:
        """Poll an Rmw: ``(done, prev)``.

        Once ``done`` is True the pending entry is retired — the result
        may be read exactly once (polling again with the same id after
        completion raises).  This keeps ``_pending_rmw`` from growing
        without bound over a long run.
        """
        st = self._pending_rmw.get(rid)
        if st is None:
            raise LapiError(f"unknown rmw id {rid}")
        if st["done"]:
            del self._pending_rmw[rid]
        return st["done"], st["prev"]

    # =================================================== counter waits
    def getcntr(self, cntr: Counter) -> int:
        """LAPI_Getcntr."""
        return cntr.value

    def setcntr(self, cntr: Counter, value: int) -> None:
        """LAPI_Setcntr."""
        cntr.set(value)

    def waitcntr(self, thread: str, cntr: Counter, val: int = 1) -> Generator:
        """LAPI_Waitcntr: poll until ``cntr >= val``, then subtract ``val``.

        Polling drives the dispatcher, so progress happens here — this is
        how polling-mode LAPI (and MPI on top of it) advances.
        """
        self._check_not_in_header_handler("LAPI_Waitcntr")
        yield from self.cpu.execute(thread, self.params.lapi_param_check_us)
        while cntr.value < val:
            if self.hal.rx_pending:
                yield from self.dispatch(thread)
                continue
            self.stats.polls += 1
            yield from self.cpu.execute(thread, self.params.poll_check_us)
            if cntr.value >= val:
                break
            if self.hal.rx_pending:
                continue
            yield AnyOf(self.env, [self.hal.wait_rx(), cntr.changed()])
        cntr.sub(val)

    def fence(self, thread: str) -> Generator:
        """LAPI_Fence: wait until all messages this task initiated have
        been delivered (transport-acknowledged) at their targets."""
        self._check_not_in_header_handler("LAPI_Fence")
        while not self._quiesced():
            yield from self.dispatch(thread)
            if self._quiesced():
                break
            ev = self.env.event()
            self._quiesce_waiters.append(ev)
            yield AnyOf(self.env, [self.hal.wait_rx(), ev])

    def gfence(self, thread: str) -> Generator:
        """LAPI_Gfence: global fence — local fence + dissemination barrier."""
        yield from self.fence(thread)
        epoch = self._gfence_epoch
        self._gfence_epoch += 1
        for t in range(self.num_tasks):
            if t != self.task_id:
                yield from self.amsend(
                    thread, t, "_lapi_gfence", {"epoch": epoch, "origin": self.task_id}
                )
        seen = self._gfence_seen.setdefault(epoch, set())
        while len(seen) < self.num_tasks - 1:
            yield from self.dispatch(thread)
            if len(seen) >= self.num_tasks - 1:
                break
            yield self.hal.wait_rx()
        del self._gfence_seen[epoch]

    def _quiesced(self) -> bool:
        return self._tx_outstanding == 0 and all(
            f.window.in_flight == 0 for f in self._flow_tx.values()
        )

    # ===================================================== TX engine
    def _flow_for_tx(self, dst: int) -> _FlowTx:
        flow = self._flow_tx.get(dst)
        if flow is None:
            flow = self._flow_tx[dst] = _FlowTx(self.params.lapi_window_pkts)
        return flow

    def _flow_for_rx(self, src: int) -> _FlowRx:
        flow = self._flow_rx.get(src)
        if flow is None:
            flow = self._flow_rx[src] = _FlowRx()
        return flow

    def _tx_engine(self) -> Generator:
        p = self.params
        while True:
            desc: _SendDesc = yield self._txq.get()
            flow = self._flow_for_tx(desc.dst)
            udata = desc.udata
            chunks = fragment(len(udata), p.packet_payload)
            last_idx = len(chunks) - 1
            # Zero-copy packetization: multi-packet messages ride read-only
            # views of the immutable snapshot; a single-packet message is
            # the snapshot itself.  The views stay valid for retransmits
            # and for receive-side stashing because the snapshot never
            # mutates.
            view = memoryview(udata) if last_idx > 0 else None
            for idx, (off, ln) in enumerate(chunks):
                while not flow.window.can_send:
                    # Drive the dispatcher while stalled: the window opens
                    # on acks that may be sitting in our own adapter FIFO.
                    yield from self.dispatch("user")
                    if flow.window.can_send:
                        break
                    ev = self.env.event()
                    flow.waiters.append(ev)
                    yield AnyOf(self.env, [ev, self.hal.wait_rx()])
                header: dict[str, Any] = {
                    "kind": _DATA,
                    "seq": None,
                    "msg": desc.msg_no,
                    "mid": desc.mid,
                    "off": off,
                    "mlen": len(udata),
                }
                if idx == 0:
                    header["first"] = True
                    header["hh"] = desc.hdr_hdl
                    header["uhdr"] = desc.uhdr
                    header["tgt_cntr"] = desc.tgt_cntr_id
                    header["want_cmpl"] = desc.want_cmpl
                payload = udata if view is None else view[off : off + ln]
                seq = flow.window.send((header, payload))
                self._g_inflight.add(1)
                header["seq"] = seq
                yield from self.cpu.execute("user", p.lapi_tx_pkt_us)
                dma_ev = None
                if idx == last_idx and desc.org_cntr is not None:
                    dma_ev = self.env.event()
                    org = desc.org_cntr
                    dma_ev._add_callback(lambda _e, c=org: c.incr())
                yield from self.hal.send("user", desc.dst, header, payload, on_dma_done=dma_ev)
                flow.last_progress = self.env.now
                self._ensure_rto(desc.dst, flow)
            self._tx_outstanding -= 1

    def _ensure_rto(self, dst: int, flow: _FlowTx) -> None:
        if flow.rto_alive:
            return
        flow.rto_alive = True
        self.env.process(self._rto_loop(dst, flow), name=f"lapi{self.task_id}.rto->{dst}")

    def _rto_loop(self, dst: int, flow: _FlowTx) -> Generator:
        p = self.params
        rto = p.lapi_rto_us
        try:
            while flow.window.in_flight:
                yield self.env.timeout(rto)
                if not flow.window.in_flight:
                    break
                yield from self.dispatch("user")
                if not flow.window.in_flight:
                    break
                if self.env.now - flow.last_progress < rto:
                    continue
                oldest = flow.window.oldest_unacked()
                if oldest is None:
                    break
                _seq, (header, payload) = oldest
                self.stats.retransmissions += 1
                self.stats.trace("lapi", "retransmit", dst=dst, seq=_seq)
                yield from self.cpu.execute("user", p.lapi_tx_pkt_us)
                yield from self.hal.send("user", dst, header, payload)
                flow.last_progress = self.env.now
                rto = min(rto * 2, p.lapi_rto_us * 16)
        finally:
            flow.rto_alive = False

    # ===================================================== dispatcher
    def dispatch(self, thread: str) -> Generator:
        """Drain the adapter, running header/completion machinery.

        Safe to call concurrently from several contexts: ``poll()`` pops
        each packet exactly once, and no per-packet state is shared
        across a yield point.  Returns the number of packets processed.
        """
        if self.faults is not None:
            stall = self.faults.stall_us(self.env.now)
            if stall > 0.0:
                yield from self.cpu.execute(thread, stall)
        processed = 0
        while True:
            pkt = self.hal.poll()
            if pkt is None:
                return processed
            processed += 1
            self._m_dispatch.incr()
            yield from self.hal.charge_recv(thread)
            kind = pkt.header.get("kind")
            if kind == _ACK:
                self._handle_ack(pkt.src, pkt.header["cum"])
            elif kind == _DATA:
                yield from self._handle_data(thread, pkt.src, pkt.header, pkt.payload)
            else:
                raise LapiError(f"LAPI got foreign packet kind {kind!r}")

    def _isr(self) -> Generator:
        """Interrupt service routine: plain drain, **no hysteresis** —
        the paper credits LAPI's good interrupt-mode latency to this."""
        yield from self.dispatch(f"irq{self.task_id}")

    def _handle_ack(self, src: int, cum: int) -> None:
        flow = self._flow_for_tx(src)
        freed = flow.window.on_ack(cum)
        if freed:
            self._g_inflight.add(-freed)
            flow.last_progress = self.env.now
            waiters, flow.waiters = flow.waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()
        if self._quiesced():
            waiters, self._quiesce_waiters = self._quiesce_waiters, []
            for ev in waiters:
                if not ev.triggered:
                    ev.succeed()

    def _handle_data(
        self, thread: str, src: int, header: dict[str, Any], payload: bytes
    ) -> Generator:
        p = self.params
        flow = self._flow_for_rx(src)
        yield from self.cpu.execute(thread, p.lapi_dispatch_us)
        if flow.ledger.accept(header["seq"]) == "dup":
            yield from self._send_ack(thread, src, flow)
            return
        flow.since_ack += 1

        key = (src, header["msg"])
        asm = self._assemblies.get(key)
        if asm is None:
            asm = self._assemblies[key] = _Assembly(src, header["msg"])

        if header.get("first"):
            asm.header_seen = True
            asm.mlen = header["mlen"]
            asm.mid = header.get("mid")
            asm.tgt_cntr_id = header.get("tgt_cntr")
            asm.want_cmpl = bool(header.get("want_cmpl"))
            try:
                handler = self._handlers[header["hh"]]
            except KeyError:
                raise LapiError(
                    f"task {self.task_id}: message names unregistered header "
                    f"handler {header['hh']!r}"
                ) from None
            self.stats.hdr_handlers_run += 1
            self.metrics.counter("lapi.hdr." + header["hh"]).incr()
            yield from self.cpu.execute(thread, p.lapi_hdr_hdl_us)
            self._in_hdr_handler = True
            try:
                target, cmpl_fn, cmpl_data = handler(self, src, header["uhdr"], asm.mlen)
            finally:
                self._in_hdr_handler = False
            if self._pending_charge_us > 0.0:
                extra, self._pending_charge_us = self._pending_charge_us, 0.0
                yield from self.cpu.execute(thread, extra)
            asm.target = target if target is not None else NullTarget()
            asm.cmpl_fn = cmpl_fn
            asm.cmpl_data = cmpl_data
            asm.cmpl_inline_always = header["hh"] in self._inline_always
            self.stats.trace("lapi", "hdr_handler", hh=header["hh"], src=src,
                             msg=header["msg"], mlen=asm.mlen, mid=asm.mid,
                             thr=thread)
            # flush chunks that raced ahead of the header packet
            for off, data in asm.stash:
                yield from self._assemble(thread, asm, off, data)
            asm.stash.clear()

        if asm.target is None:
            # header not seen yet: hold the chunk (still in HAL buffers)
            asm.stash.append((header["off"], payload))
        else:
            yield from self._assemble(thread, asm, header["off"], payload)

        if asm.header_seen and asm.received >= asm.mlen and not asm.done:
            asm.done = True
            del self._assemblies[key]
            yield from self._complete(thread, asm)

        if flow.since_ack >= p.lapi_ack_every:
            yield from self._send_ack(thread, src, flow)
        elif flow.since_ack > 0 and not flow.ack_timer_alive:
            flow.ack_timer_alive = True
            self.env.process(self._delayed_ack(src, flow), name=f"lapi{self.task_id}.dack")

    def _assemble(self, thread: str, asm: _Assembly, off: int, data: bytes) -> Generator:
        """Move one chunk HAL buffer -> target (the single MPI-LAPI copy)."""
        if data:
            asm.target.write(off, data)
            yield from self.cpu.memcpy(thread, len(data))
            asm.received += len(data)

    def _complete(self, thread: str, asm: _Assembly) -> Generator:
        """Message fully assembled: run completion machinery."""
        self.stats.trace("lapi", "msg_complete", src=asm.src, msg=asm.msg_no,
                         bytes=asm.mlen, mid=asm.mid, thr=thread)
        if asm.cmpl_fn is not None:
            if self.enhanced or asm.cmpl_inline_always:
                self.stats.cmpl_handlers_inline += 1
                self.stats.trace("lapi", "cmpl_inline", msg=asm.msg_no,
                                 mid=asm.mid, thr=thread)
                yield from self.cpu.execute(thread, self.params.lapi_inline_cmpl_us)
                yield from asm.cmpl_fn(self, thread, asm.cmpl_data)
                yield from self._post_complete(thread, asm)
            else:
                self.stats.cmpl_handlers_threaded += 1
                self.stats.trace("lapi", "cmpl_queued_to_thread", msg=asm.msg_no,
                                 mid=asm.mid, thr=thread)
                self._cmplq.put(asm)
        else:
            yield from self._post_complete(thread, asm)

    def _cmpl_thread(self) -> Generator:
        """The separate completion-handler thread of stock LAPI."""
        thread = "cmpl"
        while True:
            asm: _Assembly = yield self._cmplq.get()
            # the context switch is charged by the CPU when this thread
            # name differs from the previous one
            self.stats.trace("lapi", "cmpl_thread_run", msg=asm.msg_no,
                             mid=asm.mid, thr=thread)
            yield from self.cpu.execute(thread, self.params.lapi_inline_cmpl_us)
            yield from asm.cmpl_fn(self, thread, asm.cmpl_data)
            yield from self._post_complete(thread, asm)

    def _post_complete(self, thread: str, asm: _Assembly) -> Generator:
        """Counter updates after handler execution (paper §3 ordering)."""
        self.stats.trace("lapi", "cmpl_done", src=asm.src, msg=asm.msg_no,
                         mid=asm.mid, thr=thread)
        if asm.tgt_cntr_id is not None:
            cntr = self._lookup_counter(asm.tgt_cntr_id)
            if cntr is None:
                raise LapiError(
                    f"task {self.task_id}: unknown target counter id {asm.tgt_cntr_id}"
                )
            cntr.incr()
        if asm.want_cmpl:
            yield from self.amsend(
                thread,
                asm.src,
                "_lapi_cmpl",
                {"msg": asm.msg_no, "origin": self.task_id},
            )

    def _send_ack(self, thread: str, src: int, flow: _FlowRx) -> Generator:
        flow.since_ack = 0
        self.stats.acks_sent += 1
        yield from self.hal.send(thread, src, {"kind": _ACK, "cum": flow.ledger.cum_ack}, b"")

    def _delayed_ack(self, src: int, flow: _FlowRx) -> Generator:
        try:
            yield self.env.timeout(self.params.lapi_ack_delay_us)
            if flow.since_ack > 0:
                yield from self._send_ack("user", src, flow)
        finally:
            flow.ack_timer_alive = False

    def add_dispatch_charge(self, extra_us: float) -> None:
        """Request extra dispatcher CPU time on behalf of a (synchronous)
        header handler; applied right after the handler returns."""
        self._pending_charge_us += extra_us

    # ============================================== internal handlers
    def _check_not_in_header_handler(self, fn: str) -> None:
        if self._in_hdr_handler:
            raise LapiError(f"{fn} may not be called from a header handler (deadlock)")

    def _register_internal_handlers(self) -> None:
        self.register_handler("_lapi_put", self._hh_put, inline_always=True)
        self.register_handler("_lapi_get_req", self._hh_get_req, inline_always=True)
        self.register_handler("_lapi_get_rep", self._hh_get_rep, inline_always=True)
        self.register_handler("_lapi_rmw_req", self._hh_rmw_req, inline_always=True)
        self.register_handler("_lapi_rmw_rep", self._hh_rmw_rep, inline_always=True)
        self.register_handler("_lapi_cmpl", self._hh_cmpl, inline_always=True)
        self.register_handler("_lapi_gfence", self._hh_gfence, inline_always=True)
        self.register_handler("_lapi_null", self._hh_null, inline_always=True)

    def _hh_null(self, lapi, src, uhdr, mlen):
        return NullTarget(), None, None

    def _hh_put(self, lapi, src, uhdr, mlen):
        buf = self.resolve_address(uhdr["name"])
        if hasattr(buf, "rma_write_view"):
            # an RMA window range-checks the write and drops its epoch
            # snapshot (ByteTarget bypasses its __setitem__)
            return ByteTarget(buf.rma_write_view(uhdr["off"], mlen)), None, None
        return ByteTarget(buf, base=uhdr["off"]), None, None

    def _hh_get_req(self, lapi, src, uhdr, mlen):
        def reply(lapi_, thread, data):
            obj = self.resolve_address(data["name"])
            chunk = None
            if hasattr(obj, "rma_exposure_view"):
                # RMA window immutable for the current exposure epoch: the
                # reply rides a read-only view of the epoch snapshot (taken
                # once per epoch, amortised across every get of the epoch)
                # straight through the zero-copy amsend path.
                chunk = obj.rma_exposure_view(data["off"], data["n"])
                if chunk is not None:
                    self.metrics.counter("lapi.get_epoch_view").incr()
            if chunk is None:
                # the documented copy of the plain lapi.get path: the
                # published buffer may mutate before the reply's packets
                # go out, so a view cannot be sent directly — but the view
                # slice itself is free
                buf = memoryview(obj)
                chunk = bytes(buf[data["off"] : data["off"] + data["n"]])
                self.metrics.counter("lapi.get_reply_copy").incr()
            yield from lapi_.amsend(
                thread, data["origin"], "_lapi_get_rep", {"gid": data["gid"]}, chunk
            )

        return NullTarget(), reply, dict(uhdr)

    def _hh_get_rep(self, lapi, src, uhdr, mlen):
        view, cntr = self._pending_get.pop(uhdr["gid"])

        def done(lapi_, thread, data):
            if cntr is not None:
                cntr.incr()
            yield self.env.timeout(0)

        return ByteTarget(view), done, None

    def _hh_rmw_req(self, lapi, src, uhdr, mlen):
        # The whole read-modify-write runs synchronously inside this
        # header handler: no other handler (and no local LAPI call) can
        # interleave, which is what makes concurrent Rmw from several
        # origins to one word atomic.
        var = self.resolve_address(uhdr["name"])
        toff = uhdr.get("toff")
        if toff is not None:
            old = var.read_word(toff)
        else:
            old = var.value
        op = uhdr["op"]
        new = old
        if op == "FETCH_AND_ADD":
            new = old + uhdr["val"]
        elif op == "FETCH_AND_OR":
            new = old | uhdr["val"]
        elif op == "SWAP":
            new = uhdr["val"]
        elif op == "COMPARE_AND_SWAP":
            if old == uhdr["cmp"]:
                new = uhdr["val"]
        if toff is not None:
            var.write_word(toff, new)
        else:
            var.value = new

        def reply(lapi_, thread, data):
            yield from lapi_.amsend(
                thread,
                data["origin"],
                "_lapi_rmw_rep",
                {"rid": data["rid"], "prev": data["prev"]},
            )

        return NullTarget(), reply, {"origin": uhdr["origin"], "rid": uhdr["rid"], "prev": old}

    def _hh_rmw_rep(self, lapi, src, uhdr, mlen):
        st = self._pending_rmw[uhdr["rid"]]
        st["done"] = True
        st["prev"] = uhdr["prev"]
        if st["cntr"] is not None:
            st["cntr"].incr()
        return NullTarget(), None, None

    def _hh_cmpl(self, lapi, src, uhdr, mlen):
        cntr = self._pending_cmpl.pop((src, uhdr["msg"]), None)
        if cntr is not None:
            cntr.incr()
        return NullTarget(), None, None

    def _hh_gfence(self, lapi, src, uhdr, mlen):
        self._gfence_seen.setdefault(uhdr["epoch"], set()).add(uhdr["origin"])
        return NullTarget(), None, None
