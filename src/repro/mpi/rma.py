"""MPI-3 one-sided (RMA) over the paper's transports.

The paper layers *two-sided* MPI on LAPI's one-sided primitives; this
module closes the loop and layers MPI-3 one-sided on them directly, the
mapping Gerstenberger et al. showed beats two-sided emulation when the
transport is natively one-sided.

It is one RMA core and two thin transports.  :class:`Window` is the
core: argument checks, the local-target branch of every op, the
``rma.*`` metrics, trace records and message ids, and the epoch, PSCW
and lock-ledger state both stacks share.  A transport supplies only
the primitives that cross the wire, and keeps its per-window state in
its own slotted object (``Window.tx``):

==========================  =============================  =========================
transport primitive         ``LapiRmaEngine``              ``NativeRmaEngine``
==========================  =============================  =========================
``open`` / ``close``        applied counters, cid          private communicator +
                            allgather, address_init        window server process
``charge`` (call cost)      ``rma_call_us`` first on       nothing: native never
                            every call, ``rma_queue_us``   charges ``rma_call_us``
                            for a deferred small put       or ``rma_queue_us``
``put``                     ``LAPI_Put`` (small puts       request/ack over send/recv
                            deferred to the closing sync)
``get``                     ``LAPI_Get``                   request/data-reply
``acc`` / ``gacc``          Amsend + in-dispatcher apply   request/ack (data-reply),
                            (+ data reply)                 server apply
``rmw``                     ``LAPI_Rmw``                   request/word-reply
``rput`` / ``rget``         put/get on a request counter   the reply request
``drain`` + ``fence``       owed replies; cumulative       waitall acks; barrier
                            markers vs *applied* counters
notify/await post and       Amsend tokens + cumulative     zero-byte token messages
complete                    complete counts
``lock`` / ``unlock`` /     ledger serviced in dispatcher  ledger in the window
``grant`` / ``flush``       context; passive echo counter  server; waitall of acks
==========================  =============================  =========================

Sync-mode correctness rests on one invariant: every remote data-movement
op increments exactly one per-origin *applied* counter at the target
(``tgt_cntr_id`` for LAPI; the explicit ack for native), so an epoch can
close by comparing a cumulative issued count against a cumulative
applied count — order-independent, hence safe under the fabric's
out-of-order multi-route delivery.

Passive target progress: all target-side work (applies, the lock
ledger) runs in dispatcher/completion context (``inline_always``
handlers) or in the window server process, so both polling *and*
interrupt modes make progress without the target calling MPI.  Both
run the same module-level apply helpers, and every access to window
memory is range-checked by :class:`WindowBuffer`.
"""

from __future__ import annotations

import itertools
import json
import struct
from bisect import bisect_right
from collections import deque
from typing import Generator, Optional, Sequence

import numpy as np

from repro.lapi.buffers import ByteTarget, NullTarget
from repro.lapi.counters import Counter
from repro.mpci import ANY_SOURCE
from repro.mpi.datatypes import as_bytes, as_writable
from repro.mpi.request import Request
from repro.sim import AnyOf

__all__ = [
    "LapiRmaEngine",
    "NativeRmaEngine",
    "RmaError",
    "Window",
    "WindowBuffer",
    "win_create",
]


class RmaError(RuntimeError):
    """Invalid use of the one-sided interface."""


_WORD_MASK = (1 << 64) - 1


class WindowBuffer(bytearray):
    """Window memory with an epoch-amortised read snapshot.

    ``rma_exposure_view`` hands the LAPI get-reply path a *read-only
    view* of a lazily-taken snapshot instead of a per-get copy; any
    write (direct slice assignment, an incoming put/accumulate via
    ``rma_write_view``/``rma_epoch_dirty``) invalidates it, so during a
    read-only exposure epoch the snapshot is taken exactly once and
    every get of the epoch rides it zero-copy.

    Every RMA access goes through :meth:`check_range`, so an access
    past the end raises :class:`RmaError` instead of growing the
    buffer or reading short.
    """

    __slots__ = ("_snap", "name")

    def __init__(self, *args):
        super().__init__(*args)
        self._snap: Optional[bytes] = None
        self.name = "(unattached)"

    def __setitem__(self, key, value):
        self._snap = None
        super().__setitem__(key, value)

    def check_range(self, off: int, n: int) -> None:
        if off < 0 or off + n > len(self):
            raise RmaError(
                f"window {self.name}: {n} B at offset {off} is outside "
                f"its {len(self)} B")

    def span(self, off: int, n: int) -> memoryview:
        """Live view of bytes ``[off, off + n)``."""
        self.check_range(off, n)
        return memoryview(self)[off : off + n]

    def rma_epoch_dirty(self) -> None:
        """Invalidate the epoch snapshot (a write is about to land)."""
        self._snap = None

    def rma_write_view(self, off: int, n: int) -> memoryview:
        """Writable view for an incoming write (the snapshot is dropped)."""
        view = self.span(off, n)
        self._snap = None
        return view

    def rma_exposure_view(self, off: int, n: int) -> memoryview:
        """Read-only view over the current epoch snapshot."""
        self.check_range(off, n)
        if self._snap is None:
            self._snap = bytes(self)
        return memoryview(self._snap)[off : off + n]

    # 64-bit little-endian words for LAPI_Rmw at a byte offset
    def read_word(self, off: int) -> int:
        return int.from_bytes(self.span(off, 8), "little", signed=True)

    def write_word(self, off: int, value: int) -> None:
        self.rma_write_view(off, 8)[:] = (value & _WORD_MASK).to_bytes(8, "little")


class _StridedTarget:
    """Scatter a packed wire image into non-contiguous window ranges.

    Chunks may arrive out of order (multi-route fabric), so ``write``
    locates the range containing each wire offset by bisection.
    """

    __slots__ = ("view", "ranges", "starts")

    def __init__(self, view: memoryview, base: int,
                 ranges: Sequence[Sequence[int]]):
        self.view = view
        self.ranges = [(base + int(off), int(ln)) for off, ln in ranges]
        starts = [0]
        for _off, ln in self.ranges:
            starts.append(starts[-1] + ln)
        self.starts = starts  # wire offset where each range begins

    def write(self, off: int, data) -> None:
        if not data:
            return
        i = bisect_right(self.starts, off) - 1
        pos, n = 0, len(data)
        while pos < n:
            roff, rln = self.ranges[i]
            skip = off + pos - self.starts[i]
            take = min(rln - skip, n - pos)
            self.view[roff + skip : roff + skip + take] = data[pos : pos + take]
            pos += take
            i += 1


class _LockLedger:
    """Shared/exclusive lock state at a window target.

    FIFO-fair: once anything queues, later requests queue behind it
    (no shared-reader starvation of a waiting writer).  ``release``
    returns the queue entries that become grantable — the caller routes
    the grants (message to a remote origin, direct wake locally).
    """

    __slots__ = ("holders", "queue")

    def __init__(self):
        self.holders: dict[str, bool] = {}  # lid -> exclusive?
        self.queue: deque = deque()  # (lid, exclusive, origin_ref)

    def request(self, lid: str, exclusive: bool, origin_ref) -> bool:
        """Grant now (True) or queue the request behind the holders."""
        if not self.queue:
            if exclusive:
                ok = not self.holders
            else:
                ok = not any(self.holders.values())
            if ok:
                self.holders[lid] = exclusive
                return True
        self.queue.append((lid, exclusive, origin_ref))
        return False

    def release(self, lid: str) -> list:
        del self.holders[lid]
        granted = []
        while self.queue:
            lid2, excl2, ref2 = self.queue[0]
            if excl2:
                if self.holders:
                    break
                self.holders[lid2] = True
                granted.append(self.queue.popleft())
                break
            if any(self.holders.values()):
                break
            self.holders[lid2] = False
            granted.append(self.queue.popleft())
        return granted


#: numpy ufuncs for the element-wise accumulate ops
_ACC_UFUNCS = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "band": np.bitwise_and,
    "bor": np.bitwise_or,
    "bxor": np.bitwise_xor,
}

ACC_OPS = ("sum", "prod", "min", "max", "band", "bor", "bxor", "replace",
           "no_op")

#: the word ops of fetch_and_op (compare_and_swap is ``"cas"``)
_FETCH_OPS = ("bor", "no_op", "replace", "sum")


# ----------------------------------------------------------------------
#   target-side apply helpers: the local branch of the core, the LAPI
#   header handlers and the native window server all run these
# ----------------------------------------------------------------------
def _scatter(mem: WindowBuffer, base: int, ranges) -> _StridedTarget:
    """Range-checked target for a strided put's packed wire image."""
    for off, ln in ranges:
        mem.check_range(base + off, ln)
    mem.rma_epoch_dirty()
    return _StridedTarget(memoryview(mem), base, ranges)


def _gather(mem: WindowBuffer, base: int, ranges) -> bytes:
    """Pack the strided ranges of a get into one wire image."""
    return b"".join(bytes(mem.span(base + off, ln)) for off, ln in ranges)


def _apply_acc(mem: WindowBuffer, off: int, data, op: str, dtype: str) -> None:
    """Element-wise accumulate into window memory (runs synchronously in
    dispatcher/server context — that synchrony is the atomicity)."""
    view = mem.span(off, len(data))
    if op == "no_op":
        return
    mem.rma_epoch_dirty()
    if op == "replace":
        view[:] = data
        return
    dst = np.frombuffer(view, dtype=dtype)
    src = np.frombuffer(data if isinstance(data, (bytes, bytearray)) else bytes(data),
                        dtype=dtype)
    _ACC_UFUNCS[op](dst, src, out=dst)


def _apply_gacc(mem: WindowBuffer, off: int, data, op: str,
                dtype: str) -> bytes:
    """Fetch the old contents, then accumulate; returns the old bytes."""
    old = bytes(mem.span(off, len(data)))
    _apply_acc(mem, off, data, op, dtype)
    return old


def _rmw_word(op: str, old: int, value: int, compare: Optional[int]) -> int:
    if op == "sum":
        return old + value
    if op == "bor":
        return old | value
    if op == "replace":
        return value
    if op == "no_op":
        return old
    if op == "cas":
        return value if old == compare else old
    raise RmaError(f"unknown rmw op {op!r}")


def _apply_rmw(mem: WindowBuffer, off: int, op: str, value: int,
               compare: Optional[int]) -> int:
    """One atomic word op; returns the old value."""
    old = mem.read_word(off)
    mem.write_word(off, _rmw_word(op, old, value, compare))
    return old


def _acc_dtype(buf, dtype: Optional[str]) -> str:
    if dtype is not None:
        return dtype
    if isinstance(buf, np.ndarray):
        return buf.dtype.str
    return "|u1"


def _check_acc_op(op: str) -> None:
    if op not in ACC_OPS:
        raise RmaError(f"unknown accumulate op {op!r}")


# ======================================================================
#                              the RMA core
# ======================================================================
class Window:
    """An MPI-3 window: registered memory plus epoch state.

    Created collectively by :func:`win_create`; all methods are
    generators (``yield from win.put(...)``) except the plain accessors.
    The window runs every op itself — checks, the local-target branch,
    metrics and trace — and hands only the wire traffic to its
    transport: thin and zero-copy on the LAPI stacks, emulated over
    two-sided send/recv on the native stack.
    """

    __slots__ = ("_engine", "comm", "mem", "name", "tx", "fence_epoch",
                 "post_tokens", "complete_cums", "exposure_origins",
                 "access_targets", "ledger", "passive", "_granted",
                 "_wake_evs", "_freed")

    def __init__(self, engine, comm, mem: WindowBuffer, name: str):
        self._engine = engine
        self.comm = comm
        self.mem = mem
        self.name = name
        mem.name = name
        #: the transport's per-window state (set by :func:`win_create`)
        self.tx = None
        self.fence_epoch = 0
        # ---- post/start/complete/wait -------------------------------
        self.post_tokens: dict[int, int] = {}
        self.complete_cums: dict[int, deque] = {}
        self.exposure_origins: set[int] = set()
        self.access_targets: set[int] = set()
        # ---- passive target -----------------------------------------
        self.ledger = _LockLedger()
        self.passive: dict[int, str] = {}  # locked target rank -> lid
        self._granted: set[str] = set()
        # ---- sync plumbing ------------------------------------------
        self._wake_evs: list = []
        self._freed = False

    # ------------------------------------------------------------ misc
    @property
    def size(self) -> int:
        return len(self.mem)

    def task_of(self, rank: int) -> int:
        return self.comm.group[rank]

    def sync_event(self):
        """One-shot event fired at the next RMA state change."""
        ev = self.comm.env.event()
        self._wake_evs.append(ev)
        return ev

    def _wake(self) -> None:
        evs, self._wake_evs = self._wake_evs, []
        for ev in evs:
            if not ev.triggered:
                ev.succeed()

    def _check_live(self) -> None:
        if self._freed:
            raise RmaError(f"window {self.name} has been freed")

    def _book(self, event: str, metric: str, t: int, **fields) -> str:
        """Book one data-movement call: metric, message id, trace record."""
        eng = self._engine
        eng.metrics.counter(metric).incr()
        mid = f"rma{eng.task_id}:{next(eng.mids)}"
        eng.stats.trace("rma", event, win=self.name, tgt=t, **fields, mid=mid)
        return mid

    def _done_request(self, nbytes: int) -> Request:
        req = Request(self._engine.env, "rma")
        req.complete(count=nbytes)
        return req

    # --------------------------------------------------- data movement
    def put(self, buf, target_rank: int, target_disp: int = 0,
            datatype=None, count: int = 1) -> Generator:
        """MPI_Put (optionally strided via a derived ``datatype``)."""
        self._check_live()
        eng, t = self._engine, target_rank
        local = t == self.comm.rank
        ranges = None
        if datatype is None:
            data = as_bytes(buf)
            queued = (not local and t not in self.passive
                      and eng.queues_put(len(data)))
            yield from eng.charge(queued)
        else:
            queued = False
            yield from eng.charge()
            data = datatype.pack(buf, count)
            yield from eng.cpu.memcpy("user", len(data))
            ranges = datatype._flat_ranges(count)
        mid = self._book("put", "rma.put", t, bytes=len(data))
        if local:
            yield from self._local_put(target_disp, data, ranges)
            return
        if queued:
            eng.metrics.counter("rma.put_deferred").incr()
        yield from eng.put(self, t, target_disp, data, ranges, mid, queued)

    def _local_put(self, disp: int, data, ranges) -> Generator:
        if ranges is None:
            self.mem.rma_write_view(disp, len(data))[:] = data
        else:
            _scatter(self.mem, disp, ranges).write(0, data)
        yield from self._engine.cpu.memcpy("user", len(data))

    def get(self, buf, target_rank: int, target_disp: int = 0,
            datatype=None, count: int = 1) -> Generator:
        """MPI_Get (optionally strided via a derived ``datatype``)."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng.charge()
        if datatype is None:
            n = len(as_writable(buf))
        else:
            n = datatype.size * count
        mid = self._book("get", "rma.get", t, bytes=n)
        if t != self.comm.rank:
            yield from eng.get(self, t, target_disp, buf, n, datatype, count,
                               mid)
        elif datatype is None:
            yield from self._local_get(buf, target_disp, n)
        else:
            wire = _gather(self.mem, target_disp, datatype._flat_ranges(count))
            datatype.unpack(wire, buf, count)
            yield from eng.cpu.memcpy("user", n)

    def _local_get(self, buf, disp: int, n: int) -> Generator:
        as_writable(buf)[:n] = self.mem.span(disp, n)
        yield from self._engine.cpu.memcpy("user", n)

    def accumulate(self, buf, target_rank: int, target_disp: int = 0,
                   op: str = "sum", dtype: Optional[str] = None) -> Generator:
        """MPI_Accumulate (element-wise, atomic per message)."""
        self._check_live()
        _check_acc_op(op)
        eng, t = self._engine, target_rank
        yield from eng.charge()
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        mid = self._book("accumulate", "rma.acc", t, op=op, bytes=len(data))
        if t != self.comm.rank:
            yield from eng.acc(self, t, target_disp, data, op, dt, mid)
            return
        _apply_acc(self.mem, target_disp, data, op, dt)
        yield from eng.cpu.memcpy("user", len(data))

    def get_accumulate(self, buf, result, target_rank: int,
                       target_disp: int = 0, op: str = "sum",
                       dtype: Optional[str] = None) -> Generator:
        """MPI_Get_accumulate: fetch old contents, then apply."""
        self._check_live()
        _check_acc_op(op)
        eng, t = self._engine, target_rank
        yield from eng.charge()
        data = as_bytes(buf)
        dt = _acc_dtype(buf, dtype)
        mid = self._book("get_accumulate", "rma.gacc", t, op=op,
                          bytes=len(data))
        if t != self.comm.rank:
            yield from eng.gacc(self, t, target_disp, data, result, op, dt, mid)
            return
        old = _apply_gacc(self.mem, target_disp, data, op, dt)
        as_writable(result)[: len(old)] = old
        yield from eng.cpu.memcpy("user", 2 * len(data))

    def fetch_and_op(self, value: int, target_rank: int, target_disp: int = 0,
                     op: str = "sum") -> Generator:
        """MPI_Fetch_and_op on one 64-bit word; returns the old value.
        Blocking (the scalar rmw round-trip *is* the completion)."""
        self._check_live()
        if op not in _FETCH_OPS:
            raise RmaError(f"fetch_and_op supports {list(_FETCH_OPS)}, not {op!r}")
        return (yield from self._rmw(op, value, None, target_rank, target_disp))

    def compare_and_swap(self, value: int, compare: int, target_rank: int,
                         target_disp: int = 0) -> Generator:
        """MPI_Compare_and_swap on one 64-bit word; returns the old value."""
        self._check_live()
        return (yield from self._rmw("cas", value, compare, target_rank,
                                     target_disp))

    def _rmw(self, op: str, value: int, compare: Optional[int], t: int,
             disp: int) -> Generator:
        eng = self._engine
        yield from eng.charge()
        eng.metrics.counter("rma.rmw").incr()
        eng.stats.trace("rma", "rmw", win=self.name, tgt=t, op=op)
        if t == self.comm.rank:
            # local word ops run atomically in the caller's context
            return _apply_rmw(self.mem, disp, op, value, compare)
        return (yield from eng.rmw(self, t, disp, op, value, compare))

    def rput(self, buf, target_rank: int, target_disp: int = 0) -> Generator:
        """MPI_Rput: returns a :class:`Request` that completes when the
        data has been applied at the target."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng.charge()
        data = as_bytes(buf)
        mid = self._book("rput", "rma.put", t, bytes=len(data))
        if t != self.comm.rank:
            return (yield from eng.rput(self, t, target_disp, data, mid))
        yield from self._local_put(target_disp, data, None)
        return self._done_request(len(data))

    def rget(self, buf, target_rank: int, target_disp: int = 0) -> Generator:
        """MPI_Rget: returns a :class:`Request` that completes when the
        data has landed in ``buf``."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng.charge()
        n = len(as_writable(buf))
        mid = self._book("rget", "rma.get", t, bytes=n)
        if t != self.comm.rank:
            return (yield from eng.rget(self, t, target_disp, buf, n, mid))
        yield from self._local_get(buf, target_disp, n)
        return self._done_request(n)

    # --------------------------------------------------- synchronization
    def fence(self) -> Generator:
        """MPI_Win_fence: close the epoch on every rank (collective)."""
        self._check_live()
        eng = self._engine
        yield from eng.charge()
        eng.metrics.counter("rma.fence").incr()
        epoch = self.fence_epoch
        eng.stats.trace("rma", "fence_enter", win=self.name, epoch=epoch)
        yield from eng.drain(self)
        yield from eng.fence(self, epoch)
        self.fence_epoch += 1
        eng.stats.trace("rma", "fence_exit", win=self.name, epoch=epoch)

    def post(self, origin_ranks: Sequence[int]) -> Generator:
        """MPI_Win_post: expose the window to ``origin_ranks``."""
        self._check_live()
        ranks = list(origin_ranks)
        eng = self._engine
        yield from eng.charge()
        eng.metrics.counter("rma.post").incr()
        eng.stats.trace("rma", "post", win=self.name, origins=len(ranks))
        self.exposure_origins = set(ranks)
        me = self.comm.rank
        for r in ranks:
            if r == me:
                self._post_arrived(me)
            else:
                yield from eng.notify_post(self, r)

    def start(self, target_ranks: Sequence[int]) -> Generator:
        """MPI_Win_start: open an access epoch to ``target_ranks``."""
        self._check_live()
        ranks = list(target_ranks)
        eng = self._engine
        yield from eng.charge()
        eng.stats.trace("rma", "start", win=self.name, targets=len(ranks))
        self.access_targets = set(ranks)
        for r in sorted(ranks):
            if r == self.comm.rank:
                yield from self._take_post_token(r)
            else:
                yield from eng.await_post(self, r)

    def complete(self) -> Generator:
        """MPI_Win_complete: close the access epoch."""
        self._check_live()
        eng = self._engine
        yield from eng.charge()
        yield from eng.drain(self)
        eng.stats.trace("rma", "complete", win=self.name,
                        targets=len(self.access_targets))
        me = self.comm.rank
        for t in sorted(self.access_targets):
            if t == me:
                self._complete_arrived(me, 0)
            else:
                yield from eng.notify_complete(self, t)
        self.access_targets = set()

    def wait(self) -> Generator:
        """MPI_Win_wait: close the exposure epoch."""
        self._check_live()
        eng = self._engine
        yield from eng.charge()
        me = self.comm.rank
        for o in sorted(self.exposure_origins):
            if o == me:
                yield from eng.wait_until(self, lambda: self.complete_cums.get(me))
                self.complete_cums[me].popleft()
            else:
                yield from eng.await_complete(self, o)
        self.exposure_origins = set()
        eng.stats.trace("rma", "wait_done", win=self.name)

    def _post_arrived(self, origin: int) -> None:
        self.post_tokens[origin] = self.post_tokens.get(origin, 0) + 1
        self._wake()

    def _take_post_token(self, target: int) -> Generator:
        yield from self._engine.wait_until(
            self, lambda: self.post_tokens.get(target, 0) > 0)
        self.post_tokens[target] -= 1

    def _complete_arrived(self, origin: int, cum: int) -> None:
        self.complete_cums.setdefault(origin, deque()).append(cum)
        self._wake()

    def lock(self, target_rank: int, exclusive: bool = True) -> Generator:
        """MPI_Win_lock (shared with ``exclusive=False``)."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng.charge()
        if t in self.passive:
            raise RmaError(f"target {t} already locked by this origin")
        eng.metrics.counter("rma.lock").incr()
        lid = f"{eng.task_id}:{next(eng.lock_ids)}"
        eng.stats.trace("rma", "lock", win=self.name, tgt=t, lid=lid,
                        excl=exclusive)
        if t != self.comm.rank:
            yield from eng.lock(self, t, lid, exclusive)
        elif not self.ledger.request(lid, exclusive, None):
            yield from self._await_grant(lid)
        self.passive[t] = lid

    def flush(self, target_rank: int) -> Generator:
        """MPI_Win_flush: complete all ops to the target inside the
        current passive epoch, without releasing the lock."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng.charge()
        if t not in self.passive:
            raise RmaError(f"flush({t}) outside a passive epoch")
        eng.stats.trace("rma", "flush", win=self.name, tgt=t)
        yield from eng.flush(self, t)

    def unlock(self, target_rank: int) -> Generator:
        """MPI_Win_unlock: flushes, then releases the target's lock."""
        self._check_live()
        eng, t = self._engine, target_rank
        yield from eng.charge()
        lid = self.passive.get(t)
        if lid is None:
            raise RmaError(f"target {t} is not locked by this origin")
        # flush: every op of this epoch applied/served at the target
        yield from eng.flush(self, t)
        eng.stats.trace("rma", "unlock", win=self.name, tgt=t, lid=lid)
        if t == self.comm.rank:
            yield from self._route_grants("user", self.ledger.release(lid))
        else:
            yield from eng.unlock(self, t, lid)
        del self.passive[t]

    def _route_grants(self, thread: str, grants) -> Generator:
        """Wake local lock waiters; the transport messages remote ones."""
        for lid, _excl, ref in grants:
            if ref is None:
                self._lock_granted(lid)
            else:
                yield from self._engine.grant(self, thread, lid, ref)

    def _lock_granted(self, lid: str) -> None:
        self._granted.add(lid)
        self._wake()

    def _await_grant(self, lid: str) -> Generator:
        yield from self._engine.wait_until(self, lambda: lid in self._granted)
        self._granted.discard(lid)

    def free(self) -> Generator:
        """MPI_Win_free (collective; quiesces like a fence first).

        Freeing with one of this rank's epochs still open (a lock, a
        ``start`` without ``complete``, a ``post`` without ``wait``) is
        erroneous (MPI-3 §11.2.5) and raises before the collective."""
        self._check_live()
        if self.passive or self.access_targets or self.exposure_origins:
            raise RmaError(
                f"window {self.name}: free with an epoch still open "
                f"(locks {sorted(self.passive)}, access "
                f"{sorted(self.access_targets)}, exposure "
                f"{sorted(self.exposure_origins)})")
        yield from self.fence()  # quiesce + synchronize all ranks
        yield from self._engine.close(self)
        self._engine.stats.trace("rma", "win_free", win=self.name)
        self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Window {self.name} {len(self.mem)}B rank={self.comm.rank}>"


def win_create(comm, buf) -> Generator:
    """MPI_Win_create (collective over ``comm``).

    ``buf`` may be an int (bytes to allocate — MPI_Win_allocate style),
    a :class:`WindowBuffer`, or any bytes-like object (snapshotted into
    a fresh :class:`WindowBuffer`).  Returns the :class:`Window`.
    """
    if isinstance(buf, int):
        mem = WindowBuffer(buf)
    elif isinstance(buf, WindowBuffer):
        mem = buf
    else:
        mem = WindowBuffer(as_bytes(buf))
    engine = comm.backend.ensure_rma_engine()
    seq = getattr(comm, "_rma_seq", 0)
    comm._rma_seq = seq + 1
    name = "rma:" + ":".join(map(str, comm.context)) + f":{seq}"
    win = Window(engine, comm, mem, name)
    win.tx = yield from engine.open(win)
    engine.metrics.counter("rma.windows").incr()
    engine.stats.trace("rma", "win_create", win=name, bytes=len(mem))
    # nobody may target a window before every rank has opened it
    yield from comm.barrier()
    return win


class _Transport:
    """What both transports share: the backend's handles, the table of
    open windows, and the per-task counters the core draws message and
    lock ids from."""

    def __init__(self, backend):
        self.backend = backend
        self.task_id = backend.task_id
        self.env = backend.env
        self.cpu = backend.cpu
        self.params = backend.params
        self.stats = backend.stats
        self.metrics = backend.metrics
        self._windows: dict[str, Window] = {}
        self.mids = itertools.count()
        self.lock_ids = itertools.count()


# ======================================================================
#                      LAPI transport (thin mapping)
# ======================================================================
class _LapiWin:
    """LAPI per-window state: issue/apply accounting (cumulative, never
    reset), fence markers, deferred puts and passive-epoch counters."""

    __slots__ = ("sent_to", "replies_due", "reply_cntr", "applied_from",
                 "applied_cid_at", "fence_marks", "deferred", "pt_cntr",
                 "pt_due", "unlock_acked")

    def __init__(self, size: int, reply_cntr: Counter):
        #: ops issued to each target rank that bump its applied counter
        self.sent_to = [0] * size
        #: replies (get/sget/gacc data) owed to this origin
        self.replies_due = 0
        self.reply_cntr = reply_cntr
        #: per-origin applied counters at *this* target
        self.applied_from: dict[int, Counter] = {}
        #: counter id of my row in each target's applied table
        self.applied_cid_at: dict[int, int] = {}
        self.fence_marks: dict[int, dict[int, int]] = {}
        #: small contiguous puts queued until the closing sync: the last
        #: one carries the fence marker piggybacked, saving the
        #: standalone marker packet on the critical path
        self.deferred: dict[int, list] = {}
        self.pt_cntr: dict[int, Counter] = {}
        self.pt_due: dict[int, int] = {}
        self.unlock_acked: set[str] = set()


#: MPI word op -> LAPI_Rmw op
_LAPI_RMW = {"sum": "FETCH_AND_ADD", "bor": "FETCH_AND_OR", "replace": "SWAP",
             "no_op": "FETCH_AND_ADD", "cas": "COMPARE_AND_SWAP"}


class LapiRmaEngine(_Transport):
    """RMA transport over LAPI primitives: one per :class:`LapiBackend`.

    Contiguous put/get map straight onto ``LAPI_Put``/``LAPI_Get`` into
    the ``address_init``-registered window (zero-copy at the target);
    strided and accumulate traffic rides ``LAPI_Amsend`` with header
    handlers that resolve the window offset — the paper's §4 trick
    reused for RMA.  Scalar atomics map onto ``LAPI_Rmw``.  All
    target-side work is ``inline_always`` so it runs in dispatcher
    context on every variant: passive-target progress needs no thread
    switch and no target-side MPI call.
    """

    def __init__(self, backend):
        super().__init__(backend)
        self.lapi = backend.lapi
        self._pending: dict[int, tuple] = {}  # gid -> sget/gacc reply state
        self._gids = itertools.count()
        for hh in ("sput", "sget", "sget_rep", "acc", "gacc", "gacc_rep",
                   "fence", "put_f", "post", "complete", "lock", "lock_grant",
                   "unlock", "unlock_ack"):
            self.lapi.register_handler(f"rma_{hh}", getattr(self, f"_hh_{hh}"),
                                       inline_always=True)

    # -------------------------------------------------------- plumbing
    def _win(self, name: str) -> Window:
        try:
            return self._windows[name]
        except KeyError:
            raise RmaError(
                f"task {self.task_id}: unknown window {name!r}") from None

    def charge(self, queued: bool = False):
        """Every call pays ``rma_call_us`` first; a deferred put only
        the cheaper enqueue, ``rma_queue_us``."""
        p = self.params
        return self.cpu.execute("user", p.rma_queue_us if queued else p.rma_call_us)

    def queues_put(self, nbytes: int) -> bool:
        return nbytes <= self.params.rma_agg_limit

    def wait_until(self, win: Window, cond) -> Generator:
        """Drive the dispatcher until ``cond()`` holds (LAPI_Waitcntr
        discipline: works in polling mode, and in interrupt mode via
        the window wake events the ISR-run handlers fire)."""
        lapi = self.lapi
        while not cond():
            if lapi.hal.rx_pending:
                yield from lapi.dispatch("user")
                continue
            self.stats.polls += 1
            yield from self.cpu.execute("user", self.params.poll_check_us)
            if cond():
                break
            if lapi.hal.rx_pending:
                continue
            yield AnyOf(self.env, [lapi.hal.wait_rx(), win.sync_event()])

    def _flush_deferred(self, win: Window, t: int,
                        hold_last: bool = False):
        """Issue the puts queued for ``t``.  With ``hold_last`` the final
        op is returned un-issued so the caller can piggyback the fence
        marker on it; otherwise everything goes out as plain puts.
        Called before any other op type to the same target, so program
        order within the epoch is preserved."""
        st = win.tx
        dq = st.deferred.pop(t, None)
        if not dq:
            return None
        tail = dq.pop() if hold_last else None
        for disp, data, mid in dq:
            yield from self.lapi.put(
                "user", win.task_of(t), win.name, disp, data,
                tgt_cntr_id=st.applied_cid_at[t], mid=mid)
        return tail

    def _issue_to(self, win: Window, t: int) -> Generator:
        """Order the op after the queued puts and count it as sent."""
        yield from self._flush_deferred(win, t)
        win.tx.sent_to[t] += 1

    def _owed_reply(self, win: Window, t: int) -> Counter:
        """Book one owed reply; returns the counter the reply bumps
        (per-target during a passive epoch, the window's otherwise)."""
        st = win.tx
        if t in win.passive:
            st.pt_due[t] += 1
            return st.pt_cntr[t]
        st.replies_due += 1
        return st.reply_cntr

    def _passive_cmpl(self, win: Window, t: int) -> Optional[Counter]:
        """Completion-echo counter for store ops during a passive epoch
        (unlock flushes on it); active epochs use applied counters and
        need no per-op echo."""
        if t in win.passive:
            st = win.tx
            st.pt_due[t] += 1
            return st.pt_cntr[t]
        return None

    # ----------------------------------------------- per-window state
    def open(self, win: Window) -> Generator:
        comm, name = win.comm, win.name
        self._windows[name] = win
        reply_cntr = Counter(self.env, f"rma[{name}].reply")
        st = _LapiWin(comm.size, reply_cntr)
        # per-origin applied counters, remotely addressable by id
        cids = [0] * comm.size
        for r in range(comm.size):
            if r == comm.rank:
                continue
            cid, cntr = self.lapi.create_counter(f"rma[{name}][{r}]")
            cntr.subscribe(lambda _c, w=win: w._wake())
            st.applied_from[r] = cntr
            cids[r] = cid
        reply_cntr.subscribe(lambda _c, w=win: w._wake())
        # exchange the applied-counter ids (one allgather of int64 rows)
        row = np.asarray(cids, dtype=np.int64)
        mat = np.zeros((comm.size, comm.size), dtype=np.int64)
        yield from comm.allgather(row, mat)
        for t in range(comm.size):
            if t != comm.rank:
                st.applied_cid_at[t] = int(mat[t, comm.rank])
        self.lapi.address_init(name, win.mem)
        return st

    def close(self, win: Window):
        self.lapi.address_fini(win.name)
        del self._windows[win.name]
        return ()  # nothing to wait for

    # --------------------------------------------------- data movement
    def put(self, win: Window, t: int, disp: int, data, ranges, mid: str,
            queued: bool) -> Generator:
        st = win.tx
        if queued:
            # deferred issue: queue until the closing sync.  The origin
            # buffer may not be modified until then (MPI-3 semantics),
            # so holding the caller's view stays zero-copy.
            st.sent_to[t] += 1
            st.deferred.setdefault(t, []).append((disp, data, mid))
            return
        yield from self._issue_to(win, t)
        cmpl = self._passive_cmpl(win, t)
        if ranges is None:
            yield from self.lapi.put(
                "user", win.task_of(t), win.name, disp, data,
                tgt_cntr_id=st.applied_cid_at[t], cmpl_cntr=cmpl, mid=mid)
        else:
            yield from self.lapi.amsend(
                "user", win.task_of(t), "rma_sput",
                {"w": win.name, "base": disp, "ranges": ranges},
                data, tgt_cntr_id=st.applied_cid_at[t], cmpl_cntr=cmpl,
                mid=mid)

    def get(self, win: Window, t: int, disp: int, buf, n: int, datatype,
            count: int, mid: str) -> Generator:
        st = win.tx
        yield from self._issue_to(win, t)
        acct = self._owed_reply(win, t)
        if datatype is None:
            yield from self.lapi.get(
                "user", win.task_of(t), win.name, disp, n, as_writable(buf),
                org_cntr=acct, tgt_cntr_id=st.applied_cid_at[t], mid=mid)
            return
        gid = next(self._gids)
        tmp = bytearray(n)
        self._pending[gid] = ("sget", win, tmp, datatype, buf, count, acct)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_sget",
            {"w": win.name, "base": disp,
             "ranges": datatype._flat_ranges(count), "n": n, "gid": gid,
             "origin": self.task_id},
            tgt_cntr_id=st.applied_cid_at[t], mid=mid)

    def acc(self, win: Window, t: int, disp: int, data, op: str, dt: str,
            mid: str) -> Generator:
        yield from self._issue_to(win, t)
        cmpl = self._passive_cmpl(win, t)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_acc",
            {"w": win.name, "off": disp, "op": op, "dt": dt}, data,
            tgt_cntr_id=win.tx.applied_cid_at[t], cmpl_cntr=cmpl, mid=mid)

    def gacc(self, win: Window, t: int, disp: int, data, result, op: str,
             dt: str, mid: str) -> Generator:
        yield from self._issue_to(win, t)
        acct = self._owed_reply(win, t)
        gid = next(self._gids)
        self._pending[gid] = ("gacc", win, as_writable(result), acct)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_gacc",
            {"w": win.name, "off": disp, "op": op, "dt": dt, "gid": gid,
             "origin": self.task_id},
            data, tgt_cntr_id=win.tx.applied_cid_at[t], mid=mid)

    def rmw(self, win: Window, t: int, disp: int, op: str, value: int,
            compare: Optional[int]) -> Generator:
        yield from self._issue_to(win, t)
        c = Counter(self.env, "rma.rmw")
        rid = yield from self.lapi.rmw(
            "user", win.task_of(t), win.name, _LAPI_RMW[op],
            0 if op == "no_op" else value, prev_cntr=c,
            compare_value=compare, tgt_off=disp,
            tgt_cntr_id=win.tx.applied_cid_at[t])
        yield from self.lapi.waitcntr("user", c, 1)
        _done, prev = self.lapi.rmw_result(rid)
        return prev

    def rput(self, win: Window, t: int, disp: int, data,
             mid: str) -> Generator:
        st = win.tx
        yield from self._issue_to(win, t)
        c = Counter(self.env, "rma.rput")
        req = Request.on_counter(self.env, "rma", c)
        if t in win.passive:
            st.pt_due[t] += 1
            c.subscribe(lambda _c, tr=t: st.pt_cntr[tr].incr())
        yield from self.lapi.put(
            "user", win.task_of(t), win.name, disp, data,
            tgt_cntr_id=st.applied_cid_at[t], cmpl_cntr=c, mid=mid)
        return req

    def rget(self, win: Window, t: int, disp: int, buf, n: int,
             mid: str) -> Generator:
        yield from self._issue_to(win, t)
        c = Counter(self.env, "rma.rget")
        req = Request.on_counter(self.env, "rma", c)
        acct = self._owed_reply(win, t)
        c.subscribe(lambda _c, a=acct: a.incr())
        yield from self.lapi.get(
            "user", win.task_of(t), win.name, disp, n, as_writable(buf),
            org_cntr=c, tgt_cntr_id=win.tx.applied_cid_at[t], mid=mid)
        return req

    # ------------------------------------------------------ active sync
    def drain(self, win: Window) -> Generator:
        """Wait for every reply this origin is owed."""
        st = win.tx
        yield from self.wait_until(
            win, lambda: st.reply_cntr.value >= st.replies_due)

    def fence(self, win: Window, epoch: int) -> Generator:
        """Marker fence: tell every peer how many of my ops it should
        have applied (cumulative — order-independent under multi-route
        delivery), then wait for every peer's marker *and* the matching
        applied counts.  One small message per peer per fence; no
        per-op origin echo, and no dependence on the delayed transport
        ack (``lapi_ack_delay_us``)."""
        st = win.tx
        me = win.comm.rank
        for r in range(win.comm.size):
            if r == me:
                continue
            tail = yield from self._flush_deferred(win, r, hold_last=True)
            if tail is None:
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_fence",
                    {"w": win.name, "e": epoch, "c": st.sent_to[r], "o": me})
            else:
                # the epoch's last put carries the marker: one packet
                # does data + synchronization
                disp, data, mid = tail
                yield from self.lapi.amsend(
                    "user", win.task_of(r), "rma_put_f",
                    {"w": win.name, "off": disp, "e": epoch,
                     "c": st.sent_to[r], "o": me}, data,
                    tgt_cntr_id=st.applied_cid_at[r], mid=mid)
        yield from self.wait_until(win, lambda: self._fence_ready(win, epoch))
        st.fence_marks.pop(epoch, None)

    def _fence_ready(self, win: Window, epoch: int) -> bool:
        st = win.tx
        marks = st.fence_marks.get(epoch, {})
        for r in range(win.comm.size):
            if r == win.comm.rank:
                continue
            cum = marks.get(r)
            if cum is None:
                return False
            if cum > 0 and st.applied_from[r].value < cum:
                return False
        return True

    def notify_post(self, win: Window, r: int) -> Generator:
        yield from self.lapi.amsend("user", win.task_of(r), "rma_post",
                                    {"w": win.name, "o": win.comm.rank})

    def await_post(self, win: Window, r: int) -> Generator:
        yield from win._take_post_token(r)

    def notify_complete(self, win: Window, t: int) -> Generator:
        yield from self._flush_deferred(win, t)
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_complete",
            {"w": win.name, "c": win.tx.sent_to[t], "o": win.comm.rank})

    def await_complete(self, win: Window, o: int) -> Generator:
        cums, applied = win.complete_cums, win.tx.applied_from[o]
        yield from self.wait_until(
            win, lambda: bool(cums.get(o)) and applied.value >= cums[o][0])
        cums[o].popleft()

    # ----------------------------------------------------- passive sync
    def lock(self, win: Window, t: int, lid: str,
             exclusive: bool) -> Generator:
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_lock",
            {"w": win.name, "lid": lid, "x": exclusive, "ot": self.task_id})
        yield from win._await_grant(lid)
        st = win.tx
        if t not in st.pt_cntr:
            cntr = Counter(self.env, f"rma[{win.name}].pt{t}")
            cntr.subscribe(lambda _c, w=win: w._wake())
            st.pt_cntr[t] = cntr
            st.pt_due[t] = 0

    def grant(self, win: Window, thread: str, lid: str,
              origin_task: int) -> Generator:
        yield from self.lapi.amsend(thread, origin_task, "rma_lock_grant",
                                    {"w": win.name, "lid": lid})

    def flush(self, win: Window, t: int) -> Generator:
        """Every op to ``t`` in this passive epoch is applied at the
        target and any fetched data has landed."""
        st = win.tx
        if t in st.pt_cntr:
            yield from self.wait_until(
                win, lambda: st.pt_cntr[t].value >= st.pt_due[t])

    def unlock(self, win: Window, t: int, lid: str) -> Generator:
        yield from self.lapi.amsend(
            "user", win.task_of(t), "rma_unlock",
            {"w": win.name, "lid": lid, "ot": self.task_id})
        # the ack round-trip orders this release before any later
        # lock we issue over a different fabric route
        acked = win.tx.unlock_acked
        yield from self.wait_until(win, lambda: lid in acked)
        acked.discard(lid)

    # ------------------------------------------------- header handlers
    # All inline_always: target-side work runs in dispatcher context on
    # every stack variant (the library's internal ops never pay the
    # thread switch) — this is what makes passive target progress work
    # in both polling and interrupt modes.
    def _hh_sput(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        return _scatter(win.mem, uhdr["base"], uhdr["ranges"]), None, None

    def _hh_sget(self, lapi, src, uhdr, mlen):
        def reply(lapi_, thread, d):
            wire = _gather(self._win(d["w"]).mem, d["base"], d["ranges"])
            yield from lapi_.cpu.memcpy(thread, len(wire))  # gather copy
            yield from lapi_.amsend(thread, d["origin"], "rma_sget_rep",
                                    {"gid": d["gid"]}, wire)

        return NullTarget(), reply, dict(uhdr)

    def _hh_sget_rep(self, lapi, src, uhdr, mlen):
        _kind, _win, tmp, datatype, buf, count, acct = \
            self._pending.pop(uhdr["gid"])

        def done(lapi_, thread, _d):
            datatype.unpack(bytes(tmp), buf, count)  # scatter copy
            yield from lapi_.cpu.memcpy(thread, len(tmp))
            acct.incr()

        return ByteTarget(tmp), done, None

    def _hh_acc(self, lapi, src, uhdr, mlen):
        scratch = bytearray(mlen)

        def apply(lapi_, thread, d):
            # synchronous before any yield => atomic wrt other handlers
            _apply_acc(self._win(d["w"]).mem, d["off"], scratch, d["op"],
                       d["dt"])
            yield from lapi_.cpu.memcpy(thread, len(scratch))

        return ByteTarget(scratch), apply, dict(uhdr)

    def _hh_gacc(self, lapi, src, uhdr, mlen):
        scratch = bytearray(mlen)

        def apply(lapi_, thread, d):
            old = _apply_gacc(self._win(d["w"]).mem, d["off"], scratch,
                              d["op"], d["dt"])
            yield from lapi_.cpu.memcpy(thread, 2 * len(scratch))
            yield from lapi_.amsend(thread, d["origin"], "rma_gacc_rep",
                                    {"gid": d["gid"]}, old)

        return ByteTarget(scratch), apply, dict(uhdr)

    def _hh_gacc_rep(self, lapi, src, uhdr, mlen):
        _kind, _win, view, acct = self._pending.pop(uhdr["gid"])

        def done(lapi_, thread, _d):
            acct.incr()
            yield from lapi_.cpu.execute(thread, 0.0)

        return ByteTarget(view), done, None

    def _mark(self, uhdr) -> None:
        win = self._win(uhdr["w"])
        win.tx.fence_marks.setdefault(uhdr["e"], {})[uhdr["o"]] = uhdr["c"]
        win._wake()

    def _hh_fence(self, lapi, src, uhdr, mlen):
        self._mark(uhdr)
        return NullTarget(), None, None

    def _hh_put_f(self, lapi, src, uhdr, mlen):
        """A put with the origin's fence marker piggybacked: apply the
        data, then record the marker (the payload must land first)."""
        win = self._win(uhdr["w"])

        def mark(lapi_, thread, d):
            self._mark(d)
            yield from lapi_.cpu.execute(thread, 0.0)

        return (ByteTarget(win.mem.rma_write_view(uhdr["off"], mlen)), mark,
                dict(uhdr))

    def _hh_post(self, lapi, src, uhdr, mlen):
        self._win(uhdr["w"])._post_arrived(uhdr["o"])
        return NullTarget(), None, None

    def _hh_complete(self, lapi, src, uhdr, mlen):
        self._win(uhdr["w"])._complete_arrived(uhdr["o"], uhdr["c"])
        return NullTarget(), None, None

    def _hh_lock(self, lapi, src, uhdr, mlen):
        def acquire(lapi_, thread, d):
            win = self._win(d["w"])
            if win.ledger.request(d["lid"], d["x"], d["ot"]):
                yield from self.grant(win, thread, d["lid"], d["ot"])

        return NullTarget(), acquire, dict(uhdr)

    def _hh_lock_grant(self, lapi, src, uhdr, mlen):
        self._win(uhdr["w"])._lock_granted(uhdr["lid"])
        return NullTarget(), None, None

    def _hh_unlock(self, lapi, src, uhdr, mlen):
        def release(lapi_, thread, d):
            win = self._win(d["w"])
            yield from win._route_grants(thread, win.ledger.release(d["lid"]))
            yield from lapi_.amsend(thread, d["ot"], "rma_unlock_ack",
                                    {"w": d["w"], "lid": d["lid"]})

        return NullTarget(), release, dict(uhdr)

    def _hh_unlock_ack(self, lapi, src, uhdr, mlen):
        win = self._win(uhdr["w"])
        win.tx.unlock_acked.add(uhdr["lid"])
        win._wake()
        return NullTarget(), None, None


# ======================================================================
#                 native transport (two-sided emulation)
# ======================================================================
_REQ_TAG = 1
_POST_TAG = 2
_COMPLETE_TAG = 3
_REPLY_BASE = 16


def _enc(hdr: dict, payload: bytes = b"") -> bytes:
    j = json.dumps(hdr, separators=(",", ":")).encode()
    return struct.pack("<I", len(j)) + j + payload


def _dec(view) -> tuple[dict, bytes]:
    (n,) = struct.unpack_from("<I", view)
    hdr = json.loads(bytes(view[4 : 4 + n]))
    return hdr, bytes(view[4 + n :])


class _NativeWin:
    """Native per-window state: the private communicator, the requests
    still to complete (all, and per passive target) and the server."""

    __slots__ = ("comm", "pending", "pt_pending", "stop", "stop_evs",
                 "server")

    def __init__(self, comm):
        self.comm = comm
        self.pending: list = []
        self.pt_pending: dict[int, list] = {}
        self.stop = False
        self.stop_evs: list = []
        self.server = None


class NativeRmaEngine(_Transport):
    """RMA transport emulated over two-sided send/recv on the Pipes stack.

    The reverse of the paper's layering contrast: where MPI-LAPI builds
    two-sided semantics on a one-sided transport, this builds one-sided
    semantics on a two-sided one — every op becomes a request message to
    a per-window *server* process at the target (the target-side
    progress engine a two-sided emulation cannot avoid), which applies
    it and sends an explicit ack/data reply.  The request/ack round
    trips, the matching costs, and the Pipes staging copies are exactly
    the overheads the thin LAPI mapping dodges — measured by
    ``benchmarks/bench_rma.py``.

    All traffic rides a private communicator (the window's comm context
    extended with ``("rma", seq)``) so it can never match user
    receives.  The server runs on the ``user`` thread: library-internal
    progress, no extra context-switch charges.
    """

    def __init__(self, backend):
        super().__init__(backend)
        self._rids = itertools.count()

    # -------------------------------------------------------- plumbing
    def charge(self, queued: bool = False):
        """Native charges no per-call RMA cost: its cost is the
        two-sided traffic itself."""
        return ()

    def queues_put(self, nbytes: int) -> bool:
        return False

    def _op(self, win: Window, t: int, hdr: dict, payload: bytes,
            reply_buf, reply_dt=None, reply_count: int = 1) -> Generator:
        """Issue one request: post the reply receive first (so even a
        rendezvous-sized reply can proceed), then send.  Returns the
        reply Request; both requests join the window's pending lists."""
        st = win.tx
        rid = next(self._rids)
        hdr["rid"] = rid
        rreq = yield from st.comm.irecv(
            reply_buf, source=t, tag=_REPLY_BASE + rid, datatype=reply_dt,
            count=reply_count)
        sreq = yield from st.comm.isend(_enc(hdr, payload), t, _REQ_TAG)
        st.pending.extend((sreq, rreq))
        if t in win.passive:
            st.pt_pending.setdefault(t, []).extend((sreq, rreq))
        return rreq

    def _call(self, win: Window, t: int, hdr: dict) -> Generator:
        """A request whose empty reply is waited for (lock, unlock)."""
        rreq = yield from self._op(win, t, hdr, b"", bytearray(0))
        yield from win.tx.comm.wait(rreq)

    def wait_until(self, win: Window, cond) -> Generator:
        be = self.backend
        while not cond():
            progressed = yield from be.progress("user")
            if cond():
                break
            if progressed:
                continue
            self.stats.polls += 1
            yield from self.cpu.execute("user", self.params.poll_check_us)
            if cond():
                break
            yield AnyOf(self.env, [be.wait_rx(), win.sync_event()])

    # ----------------------------------------------- per-window state
    def open(self, win: Window) -> Generator:
        from repro.mpi.api import Communicator

        comm = win.comm
        self._windows[win.name] = win
        seq = int(win.name.rsplit(":", 1)[-1])
        st = _NativeWin(Communicator(self.backend, comm.group, comm.rank,
                                     comm.context + ("rma", seq)))
        st.server = self.env.process(self._server_loop(win, st),
                                     name=f"rma{self.task_id}.srv")
        return st
        yield  # no wire traffic, but a generator like every ``open``

    def close(self, win: Window) -> Generator:
        st = win.tx
        st.stop = True
        evs, st.stop_evs = st.stop_evs, []
        for ev in evs:
            if not ev.triggered:
                ev.succeed()
        yield st.server  # join the window server
        del self._windows[win.name]

    # --------------------------------------------------- data movement
    def put(self, win: Window, t: int, disp: int, data, ranges, mid: str,
            queued: bool) -> Generator:
        if ranges is None:
            hdr = {"k": "put", "off": disp}
        else:
            hdr = {"k": "sput", "base": disp, "ranges": ranges}
        yield from self._op(win, t, hdr, data, bytearray(0))

    def get(self, win: Window, t: int, disp: int, buf, n: int, datatype,
            count: int, mid: str) -> Generator:
        if datatype is None:
            yield from self._op(win, t, {"k": "get", "off": disp, "n": n},
                                b"", buf)
        else:
            hdr = {"k": "sget", "base": disp,
                   "ranges": datatype._flat_ranges(count), "n": n}
            yield from self._op(win, t, hdr, b"", buf, reply_dt=datatype,
                                reply_count=count)

    def acc(self, win: Window, t: int, disp: int, data, op: str, dt: str,
            mid: str) -> Generator:
        yield from self._op(win, t, {"k": "acc", "off": disp, "op": op,
                                     "dt": dt}, data, bytearray(0))

    def gacc(self, win: Window, t: int, disp: int, data, result, op: str,
             dt: str, mid: str) -> Generator:
        yield from self._op(win, t, {"k": "gacc", "off": disp, "op": op,
                                     "dt": dt}, data, result)

    def rmw(self, win: Window, t: int, disp: int, op: str, value: int,
            compare: Optional[int]) -> Generator:
        rbuf = bytearray(8)
        rreq = yield from self._op(
            win, t, {"k": "rmw", "op": op, "off": disp, "val": value,
                     "cmp": compare}, b"", rbuf)
        yield from win.tx.comm.wait(rreq)
        return int.from_bytes(rbuf, "little", signed=True)

    def rput(self, win: Window, t: int, disp: int, data,
             mid: str) -> Generator:
        return (yield from self._op(win, t, {"k": "put", "off": disp}, data,
                                    bytearray(0)))

    def rget(self, win: Window, t: int, disp: int, buf, n: int,
             mid: str) -> Generator:
        return (yield from self._op(win, t, {"k": "get", "off": disp, "n": n},
                                    b"", buf))

    # ------------------------------------------------------ active sync
    def drain(self, win: Window) -> Generator:
        """Every ack in hand => every op of mine is applied at its target."""
        st = win.tx
        pending, st.pending = st.pending, []
        st.pt_pending.clear()
        yield from st.comm.waitall(pending)

    def fence(self, win: Window, epoch: int) -> Generator:
        # the barrier makes "all my ops applied" true for all ranks at once
        yield from win.tx.comm.barrier()

    def notify_post(self, win: Window, r: int) -> Generator:
        yield from win.tx.comm.send(b"", r, _POST_TAG)

    def await_post(self, win: Window, r: int) -> Generator:
        yield from win.tx.comm.recv(bytearray(0), source=r, tag=_POST_TAG)

    def notify_complete(self, win: Window, t: int) -> Generator:
        yield from win.tx.comm.send(b"", t, _COMPLETE_TAG)

    def await_complete(self, win: Window, o: int) -> Generator:
        yield from win.tx.comm.recv(bytearray(0), source=o, tag=_COMPLETE_TAG)

    # ----------------------------------------------------- passive sync
    def lock(self, win: Window, t: int, lid: str,
             exclusive: bool) -> Generator:
        yield from self._call(win, t, {"k": "lock", "lid": lid, "x": exclusive})

    def grant(self, win: Window, thread: str, lid: str, ref) -> Generator:
        src, rid = ref
        yield from win.tx.comm.send(b"", src, _REPLY_BASE + rid)

    def flush(self, win: Window, t: int) -> Generator:
        """Every ack in hand => every op applied/served."""
        yield from win.tx.comm.waitall(win.tx.pt_pending.pop(t, []))

    def unlock(self, win: Window, t: int, lid: str) -> Generator:
        yield from self._call(win, t, {"k": "unlock", "lid": lid})

    # ------------------------------------------------------ window server
    def _server_loop(self, win: Window, st: _NativeWin) -> Generator:
        """The target-side progress engine: serve requests until freed."""
        comm = st.comm
        be = self.backend
        buf = bytearray(len(win.mem) + 8192)
        while True:
            req = yield from comm.irecv(buf, ANY_SOURCE, _REQ_TAG)
            while not (req.done or req.needs_finalize):
                if st.stop:
                    removed = yield from comm.cancel(req)
                    if removed:
                        return
                    break  # matched mid-cancel: serve it out
                progressed = yield from be.progress("user")
                if req.done or req.needs_finalize or progressed:
                    continue
                ev = self.env.event()
                st.stop_evs.append(ev)
                yield AnyOf(self.env, [be.wait_rx(), req.changed(), ev])
            status = yield from comm.wait(req)
            hdr, payload = _dec(memoryview(buf)[: status.count])
            yield from self._serve(win, status.source, hdr, payload)

    def _serve(self, win: Window, src: int, hdr: dict,
               payload: bytes) -> Generator:
        """Apply one request and send its reply (ack, data or grant)."""
        mem, kind = win.mem, hdr["k"]
        reply, copied = b"", len(payload)  # bytes the apply copies
        if kind == "put":
            mem.rma_write_view(hdr["off"], copied)[:] = payload
        elif kind == "sput":
            _scatter(mem, hdr["base"], hdr["ranges"]).write(0, payload)
        elif kind == "get":
            reply = bytes(mem.span(hdr["off"], hdr["n"]))
            copied = len(reply)
        elif kind == "sget":
            reply = _gather(mem, hdr["base"], hdr["ranges"])
            copied = len(reply)
        elif kind == "acc":
            _apply_acc(mem, hdr["off"], payload, hdr["op"], hdr["dt"])
        elif kind == "gacc":
            reply = _apply_gacc(mem, hdr["off"], payload, hdr["op"], hdr["dt"])
            copied *= 2
        elif kind == "rmw":
            old = _apply_rmw(mem, hdr["off"], hdr["op"], hdr["val"], hdr["cmp"])
            reply, copied = (old & _WORD_MASK).to_bytes(8, "little"), None
        elif kind == "lock":
            if not win.ledger.request(hdr["lid"], hdr["x"], (src, hdr["rid"])):
                return  # queued: the grant goes out at a later unlock
            copied = None
        elif kind == "unlock":
            yield from win._route_grants("user", win.ledger.release(hdr["lid"]))
            copied = None
        else:
            raise RmaError(f"window server got unknown request {kind!r}")
        if copied is not None:
            yield from self.cpu.memcpy("user", copied)
        yield from win.tx.comm.send(reply, src, _REPLY_BASE + hdr["rid"])
