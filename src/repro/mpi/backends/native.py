"""The native MPI stack: thick MPCI over the Pipes byte stream (Fig 1a).

Cost structure (paper §2): for the first and last 16 KB of every message
the data is staged through the pipe buffers — a copy user→pipe plus a
copy pipe→HAL on the send side, mirrored on the receive side.  Bytes in
the middle of larger messages stream directly.  In interrupt mode, the
interrupt handler uses the *hysteresis* dwell the paper blames for the
native stack's poor Fig 13 latency: after draining, it spins for a dwell
window hoping to coalesce further packets, growing the window while
traffic continues.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator

from repro.mpi.backends.base import Backend, InMsg, MpiFatal, PendingSend
from repro.mpi.protocol import EAGER
from repro.pipes import PipeEndpoint
from repro.sim import Event, Store

__all__ = ["NativeBackend"]


class _Frame:
    """Receive-side assembly state for one in-flight MPCI frame."""

    __slots__ = ("msg", "received", "target_view")

    def __init__(self, msg: InMsg, target_view):
        self.msg = msg
        self.received = 0
        self.target_view = target_view  # user buffer or msg.ea_buf


class NativeBackend(Backend):
    """MPCI over Pipes."""

    name = "native"

    def __init__(self, env, cpu, params, stats, task_id, num_tasks,
                 pipes: PipeEndpoint):
        super().__init__(env, cpu, params, stats, task_id, num_tasks)
        self.pipes = pipes
        self.hal = pipes.hal
        self.idle = pipes.idle
        pipes.on_packet = self._on_packet
        self._fids = itertools.count()
        #: open receive frames keyed (src_task, fid)
        self._frames: dict[tuple[int, int], _Frame] = {}
        #: serialises all outgoing frames (matching order == enqueue order)
        self._txq = Store(env, name=f"nat{task_id}.txq")
        self._tx_bytes_queued = 0
        self._tx_waiters: list[Event] = []
        env.process(self._tx_engine(), name=f"nat{task_id}.tx")

        # interrupt-mode state
        self._hysteresis_us = params.hysteresis_initial_us
        self._c_dwells = self.metrics.counter("hysteresis_dwells")

    # ---------------------------------------------------------- plumbing
    def progress(self, thread: str) -> Generator:
        before = self.hal.rx_pending
        yield from self.pipes.dispatch(thread)
        return before

    def set_interrupt_mode(self, enabled: bool) -> None:
        adapter = self.hal.adapter
        if enabled:
            adapter.set_interrupt_handler(lambda _a: self._isr())
        adapter.set_interrupt_mode(enabled)

    def make_rma_engine(self):
        from repro.mpi.rma import NativeRmaEngine

        return NativeRmaEngine(self)

    def _isr(self) -> Generator:
        """Interrupt handler with the paper's hysteresis dwell."""
        thread = f"irq{self.task_id}"
        p = self.params
        yield from self.pipes.dispatch(thread)
        while True:
            # dwell: spin on the CPU hoping more packets arrive
            self._c_dwells.value += 1
            if self.stats.tracer is not None:
                self.stats.trace("cpu", "hysteresis_dwell", us=self._hysteresis_us,
                                 thr=thread)
            yield from self.cpu.execute(thread, self._hysteresis_us)
            if self.hal.rx_pending == 0:
                self._hysteresis_us = p.hysteresis_initial_us
                return
            # traffic kept coming: process it and dwell longer next round
            self._hysteresis_us = min(
                self._hysteresis_us * p.hysteresis_growth, p.hysteresis_max_us
            )
            yield from self.pipes.dispatch(thread)

    # ------------------------------------------------------------- sends
    def isend(self, thread, data: bytes, dst_task: int, src_rank: int, tag: int,
              context: int, mode: str, blocking: bool = False) -> Generator:
        req, proto, meta = yield from self._start_send(
            thread, data, dst_task, src_rank, tag, context, mode)
        size = meta["size"]
        if proto == EAGER:
            # MPCI copies the (small) message into the pipe buffer now;
            # the send is complete as far as the user buffer goes.
            yield from self.cpu.memcpy(thread, size)
            yield from self._throttle(size)
            self._txq.put(("frame", dst_task, meta, data))
            req.complete(count=size)
        else:
            ps = PendingSend(data, dst_task, meta, req, blocking)
            self.pending_sends[meta["sid"]] = ps
            self._txq.put(("frame", dst_task, dict(meta), b""))
            if meta["bfree"]:
                req.complete(count=size)
            # data goes out when the CTS arrives (via the tx engine)
        return req

    def _throttle(self, size: int) -> Generator:
        """Model the finite pipe send buffer: too many queued-but-unsent
        bytes block further eager sends."""
        while self._tx_bytes_queued + size > self.params.pipe_buffer_bytes and \
                self._tx_bytes_queued > 0:
            yield self.env.park(self._tx_waiters.append, self.hal.arm_rx)
            yield from self.progress("user")
        self._tx_bytes_queued += size

    def _tx_engine(self) -> Generator:
        while True:
            item = yield self._txq.get()
            kind = item[0]
            if kind == "frame":
                # queued frames (eager data or control) are staged whole
                _, dst, meta, data = item
                yield from self.pipes.send_frame(
                    "user", dst, meta, data, buffered_prefix=len(data),
                    buffered_suffix=len(data), fid=next(self._fids),
                    mid=meta.get("mid"),
                )
                self._tx_bytes_queued -= len(data) if meta.get("t") == "eager" else 0
                waiters, self._tx_waiters = self._tx_waiters, []
                for ev in waiters:
                    if not ev.triggered:
                        ev.succeed()
            elif kind == "rdata":
                _, ps = item
                yield from self._send_rdata(ps)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown tx item {kind!r}")

    def _send_rdata(self, ps: PendingSend) -> Generator:
        """Second rendezvous phase: stage head/tail 16 KB, stream middle."""
        p = self.params
        size = len(ps.data)
        head = min(p.pipe_copy_window, size)
        tail = min(p.pipe_copy_window, size - head)
        # MPCI copies the staged ranges into the pipe buffer
        yield from self.cpu.memcpy("user", head + tail)
        meta = {"t": "rdata", "sid": ps.uhdr["sid"], "size": size,
                "bfree": ps.uhdr["bfree"], "mid": ps.uhdr.get("mid")}
        out_ev = self.env.event()
        fid = next(self._fids)
        yield from self.pipes.send_frame(
            "user", ps.dst_task, meta, ps.data,
            buffered_prefix=head, buffered_suffix=tail,
            on_payload_out=out_ev, fid=fid, mid=meta.get("mid"),
        )
        if not ps.req.done:
            self._complete_when(out_ev, ps.req, size)
        self.pending_sends.pop(ps.uhdr["sid"], None)

    # ----------------------------------------------------------- receives
    # perfbench/layers.py times ``vars(NativeBackend)["irecv"]``; drop this
    # alias together with that entry (ROADMAP)
    irecv = Backend.irecv

    def ack_rts(self, thread: str, msg: InMsg) -> Generator:
        """Queue a clear-to-send frame behind any frames already queued."""
        self.post_ctrl(msg.src_task, "cts", {"sid": msg.sid, "mid": msg.mid})
        yield from ()

    def post_ctrl(self, dst_task: int, kind: str, hdr: dict) -> None:
        self._txq.put(("frame", dst_task, {"t": kind, **hdr}, b""))

    # ------------------------------------------------ stream delivery
    def _on_packet(self, thread: str, src: int, header: dict[str, Any],
                   payload: bytes) -> Generator:
        """In-order packet delivery from the Pipes layer."""
        meta = header.get("meta")
        if meta is not None:
            yield from self._on_frame_start(thread, src, header, meta, payload)
        else:
            frame = self._frames.get((src, header["fid"]))
            if frame is None:
                raise MpiFatal(f"continuation packet for unknown frame {header['fid']}")
            yield from self._frame_data(thread, frame, header, payload)

    def _on_frame_start(self, thread: str, src: int, header: dict[str, Any],
                        meta: dict[str, Any], payload: bytes) -> Generator:
        t = meta["t"]
        if t in ("eager", "rts"):
            msg = InMsg.from_header(meta, src)
            # matching runs in dispatcher context (a generator here, so
            # the cost is charged directly rather than via the LAPI
            # deferral); the commit in _arrive re-checks the posted queue
            # for a receive posted by another process meanwhile
            handle, inspected = self.matcher.posted.match(msg.envelope)
            yield from self.cpu.execute(
                thread, self.match_cost(inspected) + self.params.mpi_lock_us)
            self._arrive(msg, handle)
            if t == "rts":
                if msg.req is not None:
                    yield from self.ack_rts(thread, msg)
                return
        elif t == "rdata":
            msg = self._claim_rdata(src, meta)
        elif t == "cts":
            ps = self.pending_sends.get(meta["sid"])
            if ps is not None:
                self._txq.put(("rdata", ps))
            return
        elif t == "bfree":
            self._release_attached(meta["sid"])
            return
        else:  # pragma: no cover - defensive
            raise MpiFatal(f"unknown frame type {t!r}")
        frame = _Frame(msg, self._landing(msg))
        self._frames[(src, header["fid"])] = frame
        yield from self._frame_data(thread, frame, header, payload)

    def _frame_data(self, thread: str, frame: _Frame, header: dict[str, Any],
                    payload: bytes) -> Generator:
        """Copy one packet's payload to its destination and track progress.

        Every packet pays one copy here: staged ("buffered") packets model
        pipe-buffer→user, streamed ones HAL-buffer→user/EA.
        """
        msg = frame.msg
        if payload:
            off = header["foff"]
            frame.target_view[off : off + len(payload)] = payload
            yield from self.cpu.memcpy(thread, len(payload))
            frame.received += len(payload)
        if frame.received >= msg.size:
            self._frames.pop((msg.src_task, header["fid"]), None)
            # native completion happens right in the dispatcher — the
            # native stack has no separate completion thread (its Fig 13
            # problem is hysteresis, not context switches)
            if self.stats.tracer is not None:
                self.stats.trace("mpci", "msg_complete", sid=msg.sid, bytes=msg.size,
                                 mid=msg.mid)
            self._data_complete(msg)
