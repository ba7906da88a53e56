"""Shared backend machinery: the MPCI send prologue and receive path,
early arrivals, buffered mode.

Both stacks run the same receive path (:meth:`Backend.irecv`, the
arrival decision :meth:`Backend._arrive`, data completion
:meth:`Backend._data_complete`); the transports differ only in how they
acknowledge a request-to-send (:meth:`Backend.ack_rts`), send a control
message (:meth:`Backend.post_ctrl`), charge the arrival-side match cost,
and order or assemble what arrives.

Terminology: the *task* is the transport endpoint (node id); *rank* is a
position within a communicator.  The backend speaks tasks for routing
and ranks for matching envelopes (an envelope's ``src`` is the sender's
rank in the message's communicator).
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

from repro.machine.cpu import Cpu
from repro.machine.params import MachineParams
from repro.machine.stats import NodeStats
from repro.mpci import Envelope, Matcher
from repro.mpi.protocol import BUFFERED, EAGER, READY, select_protocol
from repro.mpi.request import Request
from repro.obs.registry import Counter
from repro.sim import Environment, Event
from repro.transport.flows import wake_all

__all__ = ["Backend", "InMsg", "MpiFatal", "PendingSend"]


class MpiFatal(RuntimeError):
    """Fatal MPI error (e.g. Ready-mode send with no posted receive —
    the paper's Fig. 3 raises a fatal error and terminates the job)."""


class InMsg:
    """Receiver-side state for one incoming point-to-point message."""

    __slots__ = (
        "envelope",
        "src_task",
        "mseq",
        "size",
        "proto",  # "eager" | "rts" | "rdata"
        "mode",
        "sid",
        "mid",
        "want_bfree",
        "ea_buf",
        "req",
        "assembled",
    )

    def __init__(self, envelope: Envelope, src_task: int, mseq: int, size: int,
                 proto: str, mode: str, sid: int, want_bfree: bool,
                 mid: Optional[str] = None):
        self.envelope = envelope
        self.src_task = src_task
        self.mseq = mseq
        self.size = size
        self.proto = proto
        self.mode = mode
        self.sid = sid
        self.mid = mid
        self.want_bfree = want_bfree
        self.ea_buf: Optional[bytearray] = None
        self.req: Optional[Request] = None
        self.assembled = False

    @classmethod
    def from_header(cls, hdr: dict, src_task: int) -> "InMsg":
        """State for an eager or rts message from its send header
        (:meth:`Backend._start_send`)."""
        return cls(Envelope(hdr["ctx"], hdr["srank"], hdr["tag"]), src_task,
                   hdr["mseq"], hdr["size"], hdr["t"], hdr["mode"], hdr["sid"],
                   hdr["bfree"], mid=hdr.get("mid"))


class PendingSend:
    """Origin-side state for one rendezvous send awaiting its ack."""

    __slots__ = ("data", "dst_task", "uhdr", "req", "blocking", "acked", "waiter",
                 "recv_slot")

    def __init__(self, data: bytes, dst_task: int, uhdr: dict, req: Request,
                 blocking: bool):
        self.data = data
        self.dst_task = dst_task
        self.uhdr = uhdr
        self.req = req
        self.blocking = blocking
        self.acked = False
        self.waiter: Optional[Event] = None
        self.recv_slot: Optional[int] = None

    def arm(self, ev: Event) -> None:
        """Fire ``ev`` (unless it has fired already) when the ack lands."""
        self.waiter = ev


class Backend:
    """Common state + helpers; concrete backends add the transport and
    set ``hal``, the node's packet layer, and ``idle``, a call that is
    True when a :meth:`progress` pass would provably do nothing."""

    name = "abstract"

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        params: MachineParams,
        stats: NodeStats,
        task_id: int,
        num_tasks: int,
    ):
        self.env = env
        self.cpu = cpu
        self.params = params
        self.stats = stats
        self.task_id = task_id
        self.num_tasks = num_tasks

        #: posted receives, early arrivals and bound rendezvous receives
        self.matcher = Matcher()
        self._send_ids = itertools.count()
        self._mseq_next: dict[int, int] = {}  # per-destination send order
        self.pending_sends: dict[int, PendingSend] = {}

        # MPI_Buffer_attach accounting
        self._attach_capacity = 0
        self._attach_used = 0
        #: sid -> bytes to release when the bfree notification arrives
        self._attach_outstanding: dict[int, int] = {}
        #: detaches waiting for the last outstanding bfree
        self._detach_waiters: list[Event] = []

        # early-arrival buffer accounting
        self._ea_used = 0

        #: lazily-created MPI-3 RMA engine (repro.mpi.rma)
        self._rma_engine = None

        # observability: protocol-selection counters per Table-2 mode,
        # early-arrival occupancy high water, unexpected-queue depth
        self.metrics = reg = stats.registry
        self._g_ea = reg.gauge("mpi.ea_bytes")
        self._g_unexpected = reg.gauge("mpi.unexpected_depth")
        #: (protocol, mode) -> its ``mpi.proto.<protocol>.<mode>`` counter,
        #: made on the pair's first send
        self._m_proto: dict[tuple[str, str], Counter] = {}
        # the registry counters behind the NodeStats facade, held directly
        self._c_polls = reg.counter("polls")
        self._c_msgs_sent = reg.counter("msgs_sent")
        self._c_msgs_received = reg.counter("msgs_received")
        self._c_eager = reg.counter("eager_sends")
        self._c_rendezvous = reg.counter("rendezvous_started")
        self._c_early = reg.counter("early_arrivals")
        self._c_posted = reg.counter("matches_posted")
        self._c_deferred = reg.counter("deferred_announcements")

    # ------------------------------------------------------ buffered mode
    def attach_buffer(self, nbytes: int) -> None:
        """MPI_Buffer_attach."""
        if self._attach_capacity:
            raise MpiFatal("a buffer is already attached")
        if nbytes <= 0:
            raise ValueError("attach size must be positive")
        self._attach_capacity = nbytes
        self._attach_used = 0

    def detach_buffer(self, thread: str) -> Generator:
        """MPI_Buffer_detach: wait until every buffered send's receiver
        has freed its space (the bfree notification), then detach;
        returns the detached capacity."""
        outstanding = self._attach_outstanding
        yield from self.poll_until(thread, lambda: not outstanding,
                                   self._detach_waiters.append)
        cap = self._attach_capacity
        self._attach_capacity = 0
        return cap

    def _reserve_attached(self, nbytes: int, sid: int) -> None:
        if nbytes > self._attach_capacity - self._attach_used:
            raise MpiFatal(
                f"buffered send of {nbytes}B exceeds attached buffer space "
                f"({self._attach_capacity - self._attach_used}B free)"
            )
        self._attach_used += nbytes
        self._attach_outstanding[sid] = nbytes

    def _release_attached(self, sid: int) -> None:
        self._attach_used -= self._attach_outstanding.pop(sid, 0)
        if not self._attach_outstanding:
            wake_all(self._detach_waiters)

    # ------------------------------------------------------- EA buffers
    def _alloc_ea(self, size: int) -> bytearray:
        if self._ea_used + size > self.params.early_arrival_bytes:
            raise MpiFatal(
                f"early-arrival buffer exhausted ({self._ea_used + size}B > "
                f"{self.params.early_arrival_bytes}B); raise eager_limit "
                "discipline or early_arrival_bytes"
            )
        self._ea_used += size
        self._g_ea.set(self._ea_used)
        self._c_early.value += 1
        return bytearray(size)

    # ---------------------------------------------------------- helpers
    def mint_mid(self, sid: int) -> str:
        """Cluster-unique message id for the send with local id ``sid``.

        ``<origin task>:<origin send id>`` — unique across the whole
        cluster without coordination, stable across reruns, and carried
        by every packet header and trace record the message generates on
        either node (the causal key ``repro.obs.spans`` reconstructs
        span trees from).
        """
        return f"{self.task_id}:{sid}"

    def match_cost(self, inspected: int) -> float:
        p = self.params
        return p.match_base_us + inspected * p.match_per_entry_us

    # ------------------------------------------------- abstract surface
    def isend(self, thread, data, dst_task, src_rank, tag, context, mode,
              blocking=False) -> Generator:
        raise NotImplementedError

    def ack_rts(self, thread: str, msg: InMsg) -> Generator:
        """Tell the sender of a matched request-to-send to ship the data."""
        raise NotImplementedError

    def post_ctrl(self, dst_task: int, kind: str, hdr: dict) -> None:
        """Queue control message ``kind`` (e.g. ``"bfree"``) for sending
        from a context that cannot yield."""
        raise NotImplementedError

    def progress(self, thread: str) -> Generator:
        raise NotImplementedError

    def set_interrupt_mode(self, enabled: bool) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------ sends
    def _start_send(self, thread, data: bytes, dst_task: int, src_rank: int,
                    tag: int, context: int, mode: str) -> Generator:
        """The send path up to the transport, shared by both stacks: call
        cost, protocol choice, ids, buffered-mode staging and the header
        the first packet carries.  Returns ``(req, proto, hdr)``."""
        p = self.params
        yield from self.cpu.execute(thread, p.mpi_call_us + p.mpi_lock_us)
        req = Request(self.env, "send")
        size = len(data)
        proto = select_protocol(mode, size, p.eager_limit)
        counter = self._m_proto.get((proto, mode))
        if counter is None:
            counter = self._m_proto[proto, mode] = self.metrics.counter(
                f"mpi.proto.{proto}.{mode}")
        counter.value += 1
        sid = next(self._send_ids)
        mseq = self._mseq_next.get(dst_task, 0)
        self._mseq_next[dst_task] = mseq + 1
        want_bfree = mode == BUFFERED
        if want_bfree:
            # Fig 8: copy the message into the user-attached buffer first
            self._reserve_attached(size, sid)
            yield from self.cpu.memcpy(thread, size)
        self._c_msgs_sent.value += 1
        hdr = {"ctx": context, "srank": src_rank, "tag": tag, "mseq": mseq,
               "size": size, "mode": mode, "sid": sid,
               "mid": self.mint_mid(sid), "bfree": want_bfree}
        if proto == EAGER:
            self._c_eager.value += 1
            hdr["t"] = "eager"
        else:
            self._c_rendezvous.value += 1
            hdr["t"] = "rts"
        return req, proto, hdr

    @staticmethod
    def _complete_when(ev: Event, req: Request, count: int) -> None:
        """Complete send ``req`` once ``ev`` says its data has left."""
        ev._add_callback(lambda _e: req.complete(count=count) if not req.done else None)

    # ----------------------------------------------------------- receives
    def irecv(self, thread, view, src_pattern: int, tag_pattern: int,
              context: int) -> Generator:
        """MPI_Irecv: probe the early queue, charge the match, commit."""
        p = self.params
        yield from self.cpu.execute(thread, p.mpi_call_us + p.mpi_lock_us)
        req = Request(self.env, "recv")
        req.ctx = view
        entry, inspected = self.matcher.early.match(context, src_pattern, tag_pattern)
        self._g_unexpected.set(len(self.matcher.early))
        yield from self.cpu.execute(thread, self.match_cost(inspected))
        if entry is None:
            # a message may have arrived while the match cost was charged;
            # post re-checks the early queue before posting, without a
            # yield in between, or the pair strands
            entry = self.matcher.post(context, src_pattern, tag_pattern, req)
        if entry is None:
            self._c_posted.value += 1
            return req

        msg = entry[1]
        self._bind(msg, req)
        if msg.proto == "rts":
            # Fig 9: acknowledge the request-to-send now that the receive
            # is posted
            yield from self.ack_rts(thread, msg)
        elif msg.assembled:
            # message already sits complete in the early-arrival buffer
            yield from self._copy_ea_to_user(thread, msg, req)
        # else data is still arriving into the EA buffer; finalized on
        # completion
        return req

    def _bind(self, msg: InMsg, req: Request) -> None:
        """Join a message to its receive; a request-to-send also reserves
        the receive for the rendezvous data that follows its ack."""
        view = req.ctx
        if msg.size > len(view):
            raise MpiFatal(
                f"message of {msg.size}B truncates receive buffer of "
                f"{len(view)}B (tag {msg.envelope.tag})"
            )
        msg.req = req
        if msg.proto == "rts":
            self.matcher.bind(msg.src_task, msg.sid, req, msg.envelope)

    def _arrive(self, msg: InMsg, handle: Optional[Request] = None) -> int:
        """The arrival decision (Fig 3b), committed without a yield.

        ``handle`` is the posted receive the transport's probe claimed
        before charging the match cost; without one, the posted queue is
        searched now.  A matched message is bound to its receive;
        otherwise it waits in the early queue — or, sent in ready mode,
        is fatal.  Returns the entries the search here inspected (0 if
        the probe's ``handle`` was used).
        """
        inspected = 0
        if handle is None:
            handle, inspected = self.matcher.arrive(
                msg.envelope, msg, queue=msg.mode != READY)
        if handle is None and msg.mode == READY:
            # Fig 3: ready-mode message with no posted receive is fatal
            raise MpiFatal(
                f"ready-mode message (tag {msg.envelope.tag}) arrived with "
                "no matching receive posted"
            )
        if self.stats.tracer is not None:
            self.stats.trace("mpci", "early_arrival" if handle is None else "matched_posted",
                             proto=msg.proto, tag=msg.envelope.tag, mseq=msg.mseq,
                             mid=msg.mid)
        if handle is None:
            self._g_unexpected.set(len(self.matcher.early))
        else:
            self._bind(msg, handle)
            if msg.assembled:
                # a deferred LAPI message can finish assembling into its EA
                # buffer before its announcement gap fills; the completion
                # ran with no request bound, so finish the hand-off here
                self._finish_from_ea(msg, handle)
        return inspected

    def _landing(self, msg: InMsg):
        """Where a data message's bytes go: the bound receive's buffer,
        else a fresh early-arrival buffer."""
        if msg.req is not None:
            return msg.req.ctx
        msg.ea_buf = self._alloc_ea(msg.size)
        return msg.ea_buf

    def _claim_rdata(self, src_task: int, hdr: dict) -> InMsg:
        """Receive state for second-phase rendezvous data, which needs no
        matching: its request-to-send bound the receive."""
        bound = self.matcher.claim(src_task, hdr["sid"])
        if bound is None:
            raise MpiFatal(f"rendezvous data for unknown receive (sid {hdr['sid']})")
        req, envelope = bound
        msg = InMsg(envelope, src_task, -1, hdr["size"], "rdata", "standard",
                    hdr["sid"], hdr["bfree"], mid=hdr.get("mid"))
        msg.req = req
        return msg

    def _data_complete(self, msg: InMsg) -> None:
        """A data message (eager or rdata) is fully assembled (sync)."""
        msg.assembled = True
        req = msg.req
        if req is not None:
            if msg.ea_buf is None:
                req.complete(source=msg.envelope.src, tag=msg.envelope.tag,
                             count=msg.size)
                self._c_msgs_received.value += 1
            else:
                self._finish_from_ea(msg, req)
        if msg.want_bfree:
            self.post_ctrl(msg.src_task, "bfree", {"sid": msg.sid, "mid": msg.mid})

    def _finish_from_ea(self, msg: InMsg, req: Request) -> None:
        """Leave the EA-to-user copy to the receive's next wait or test."""
        req.set_finalizer(lambda thread: self._copy_ea_to_user(thread, msg, req))

    def _copy_ea_to_user(self, thread: str, msg: InMsg, req: Request) -> Generator:
        view = req.ctx
        # buffer-to-buffer move; a bare bytearray slice would materialise
        # a temporary copy first
        view[: msg.size] = memoryview(msg.ea_buf)[: msg.size]
        yield from self.cpu.memcpy(thread, msg.size)
        self._ea_used -= msg.size
        self._g_ea.set(self._ea_used)
        req.complete(source=msg.envelope.src, tag=msg.envelope.tag, count=msg.size)
        self._c_msgs_received.value += 1

    # ------------------------------------------------------------- RMA
    def ensure_rma_engine(self):
        """One RMA engine per backend instance, created on first
        ``win_create`` so two-sided-only runs never pay for it."""
        if self._rma_engine is None:
            self._rma_engine = self.make_rma_engine()
        return self._rma_engine

    def make_rma_engine(self):
        raise NotImplementedError

    # ------------------------------------------------------ wait loop
    def wait(self, thread: str, req: Request) -> Generator:
        """Drive progress until ``req`` completes (polling discipline)."""
        yield from self.poll_until(
            thread, lambda: req.done or req.needs_finalize, req.arm)
        if req.needs_finalize:
            yield from req.run_finalizer(thread)
        return req.status

    def poll_until(self, thread: str, done, arm) -> Generator:
        """Make progress until ``done()``; after a pass that found nothing,
        pay one poll check, then sleep until a packet or the source that
        ``arm`` parks a wake event on fires.  A pass that would provably
        do nothing (``idle()``) is skipped: it would neither change
        ``done()`` nor report progress."""
        idle = self.idle
        while not done():
            if not idle():
                progressed = yield from self.progress(thread)
                if done() or progressed:
                    continue
            self._c_polls.value += 1
            yield from self.cpu.execute(thread, self.params.poll_check_us)
            if not done():
                yield self.env.park(self.hal.arm_rx, arm)

    def test(self, thread: str, req: Request) -> Generator:
        """Single progress pass; returns True if the request completed."""
        yield from self.progress(thread)
        if req.needs_finalize:
            yield from req.run_finalizer(thread)
        return req.done
