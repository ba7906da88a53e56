"""The user-facing MPI API.

User programs are generators running inside the simulation; every
potentially blocking call is used as ``yield from comm.send(...)``.
Nonblocking calls return :class:`~repro.mpi.request.Request` handles for
``comm.wait`` / ``comm.test`` / ``comm.waitall``.

Communicators carry *two* context ids — one for point-to-point, one for
collectives — so collective traffic can never match user receives, the
same trick real MPI implementations (including IBM's MPCI) use.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional, Sequence

import numpy as np

from repro.mpci import ANY_SOURCE, ANY_TAG
from repro.mpi import collectives as _coll
from repro.mpi.backends.base import Backend
from repro.mpi.datatypes import as_bytes, as_writable
from repro.mpi.protocol import BUFFERED, READY, STANDARD, SYNCHRONOUS
from repro.mpi.request import Request, Status

__all__ = ["Communicator", "MpiError"]


class MpiError(RuntimeError):
    """Invalid use of the MPI interface."""


class Communicator:
    """A group of tasks with isolated communication contexts."""

    def __init__(
        self,
        backend: Backend,
        group: Sequence[int],
        rank: int,
        context: tuple = (0,),
    ):
        self.backend = backend
        self.group = list(group)
        self.rank = rank
        self.context = context  # point-to-point context id
        self.coll_context = context + ("coll",)
        self._derived = 0
        #: per-communicator collective-algorithm overrides, e.g.
        #: ``comm.coll_algorithms["allreduce"] = "ring"`` (see
        #: :mod:`repro.mpi.coll_algorithms`)
        self.coll_algorithms: dict = {}
        if backend.task_id != self.group[rank]:
            raise MpiError("rank/group mismatch for this task")

    # ------------------------------------------------------------ basics
    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def env(self):
        return self.backend.env

    def wtime(self) -> float:
        """MPI_Wtime: simulated seconds since the epoch."""
        return self.backend.env.now * 1e-6

    def _task_of(self, rank: int) -> int:
        if not (0 <= rank < self.size):
            raise MpiError(f"rank {rank} out of range for size {self.size}")
        return self.group[rank]

    def _src_pattern(self, source: int) -> int:
        if source == ANY_SOURCE:
            return ANY_SOURCE
        if not (0 <= source < self.size):
            raise MpiError(f"source rank {source} out of range")
        return source

    # -------------------------------------------------------- pt2pt sends
    def _isend(self, buf: Any, dest: int, tag: int, mode: str,
               blocking: bool, datatype=None, count: int = 1) -> Generator:
        if tag < 0:
            raise MpiError("tags must be non-negative")
        if datatype is not None:
            # derived datatype: pack into wire form (a real gather copy)
            data = datatype.pack(buf, count)
            yield from self.backend.cpu.memcpy("user", len(data))
        else:
            data = as_bytes(buf)
        req = yield from self.backend.isend(
            "user", data, self._task_of(dest), self.rank, tag, self.context,
            mode, blocking=blocking,
        )
        return req

    def isend(self, buf: Any, dest: int, tag: int = 0, datatype=None,
              count: int = 1) -> Generator:
        """MPI_Isend (standard mode); optional derived ``datatype``."""
        return (yield from self._isend(buf, dest, tag, STANDARD, blocking=False,
                                       datatype=datatype, count=count))

    def issend(self, buf: Any, dest: int, tag: int = 0) -> Generator:
        """MPI_Issend."""
        return (yield from self._isend(buf, dest, tag, SYNCHRONOUS, blocking=False))

    def irsend(self, buf: Any, dest: int, tag: int = 0) -> Generator:
        """MPI_Irsend."""
        return (yield from self._isend(buf, dest, tag, READY, blocking=False))

    def ibsend(self, buf: Any, dest: int, tag: int = 0) -> Generator:
        """MPI_Ibsend."""
        return (yield from self._isend(buf, dest, tag, BUFFERED, blocking=False))

    def send(self, buf: Any, dest: int, tag: int = 0, datatype=None,
             count: int = 1) -> Generator:
        """MPI_Send: returns when the user buffer is reusable."""
        req = yield from self._isend(buf, dest, tag, STANDARD, blocking=True,
                                     datatype=datatype, count=count)
        yield from self.backend.wait("user", req)

    def ssend(self, buf: Any, dest: int, tag: int = 0) -> Generator:
        """MPI_Ssend."""
        req = yield from self._isend(buf, dest, tag, SYNCHRONOUS, blocking=True)
        yield from self.backend.wait("user", req)

    def rsend(self, buf: Any, dest: int, tag: int = 0) -> Generator:
        """MPI_Rsend: erroneous (fatal) if the receive is not posted."""
        req = yield from self._isend(buf, dest, tag, READY, blocking=True)
        yield from self.backend.wait("user", req)

    def bsend(self, buf: Any, dest: int, tag: int = 0) -> Generator:
        """MPI_Bsend: completes locally against the attached buffer."""
        req = yield from self._isend(buf, dest, tag, BUFFERED, blocking=True)
        yield from self.backend.wait("user", req)

    def buffer_attach(self, nbytes: int) -> None:
        """MPI_Buffer_attach."""
        self.backend.attach_buffer(nbytes)

    def buffer_detach(self) -> Generator:
        """MPI_Buffer_detach: returns the detached size once every
        buffered send's space is free again."""
        return (yield from self.backend.detach_buffer("user"))

    # ------------------------------------------------------ pt2pt receives
    def irecv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              datatype=None, count: int = 1) -> Generator:
        """MPI_Irecv; with a derived ``datatype`` the wire image is
        unpacked (scatter copy) when the request is waited/tested."""
        if datatype is not None:
            wire = bytearray(datatype.size * count)
            view = as_writable(wire)
        else:
            view = as_writable(buf)
        req = yield from self.backend.irecv(
            "user", view, self._src_pattern(source), tag, self.context
        )
        if datatype is not None:
            req.user_ctx = ("unpack", datatype, buf, count, wire)
        return req

    def recv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype=None, count: int = 1) -> Generator:
        """MPI_Recv: returns the :class:`Status`."""
        req = yield from self.irecv(buf, source, tag, datatype, count)
        status = yield from self.wait(req)
        return status

    # --------------------------------------------------------- completion
    def _finish(self, req: Request) -> Generator:
        """API-layer completion work (derived-datatype unpack)."""
        if req.done and req.user_ctx is not None:
            kind, datatype, buf, count, wire = req.user_ctx
            req.user_ctx = None
            if kind == "unpack":
                datatype.unpack(bytes(wire[: req.status.count]), buf, count)
                yield from self.backend.cpu.memcpy("user", req.status.count)

    def wait(self, req: Request) -> Generator:
        """MPI_Wait."""
        status = yield from self.backend.wait("user", req)
        yield from self._finish(req)
        return status

    def test(self, req: Request) -> Generator:
        """MPI_Test: one progress pass; True if complete."""
        done = yield from self.backend.test("user", req)
        if done:
            yield from self._finish(req)
        return done

    def waitall(self, reqs: Iterable[Request]) -> Generator:
        """MPI_Waitall."""
        statuses = []
        for r in reqs:
            statuses.append((yield from self.wait(r)))
        return statuses

    def waitany(self, reqs: list[Request]) -> Generator:
        """MPI_Waitany: index + status of the first completed request."""
        if not reqs:
            raise MpiError("waitany needs at least one request")
        while True:
            for i, r in enumerate(reqs):
                if r.done or r.needs_finalize:
                    status = yield from self.wait(r)
                    return i, status
            progressed = yield from self.backend.progress("user")
            if progressed:
                continue
            yield self.env.park(self.backend.hal.arm_rx, *[r.arm for r in reqs])

    def sendrecv(self, sendbuf: Any, dest: int, recvbuf: Any, source: int,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Generator:
        """MPI_Sendrecv (deadlock-free combined operation)."""
        rreq = yield from self.irecv(recvbuf, source, recvtag)
        sreq = yield from self.isend(sendbuf, dest, sendtag)
        yield from self.backend.wait("user", sreq)
        return (yield from self.backend.wait("user", rreq))

    # ---------------------------------------------------------- probing
    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """MPI_Iprobe: progress once, then peek the early-arrival queue."""
        yield from self.backend.progress("user")
        entry, inspected = self.backend.matcher.early.peek_match(
            self.context, self._src_pattern(source), tag
        )
        yield from self.backend.cpu.execute(
            "user", self.backend.match_cost(inspected)
        )
        if entry is None:
            return None
        env_, msg = entry
        return Status(source=env_.src, tag=env_.tag, count=msg.size)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """MPI_Probe: block until a matching message is announced."""
        while True:
            status = yield from self.iprobe(source, tag)
            if status is not None:
                return status
            yield self.backend.hal.wait_rx()

    # -------------------------------------------------------- collectives
    def barrier(self) -> Generator:
        """MPI_Barrier."""
        yield from _coll.barrier(self)

    def bcast(self, buf: Any, root: int = 0) -> Generator:
        """MPI_Bcast (in place: every rank passes the same-shaped buffer)."""
        algo = self.coll_algorithms.get("bcast")
        if algo is not None:
            from repro.mpi.coll_algorithms import BCAST_ALGORITHMS

            yield from BCAST_ALGORITHMS[algo](self, buf, root)
        else:
            yield from _coll.bcast(self, buf, root)

    def reduce(self, sendbuf: Any, recvbuf: Optional[Any], op: str = "sum",
               root: int = 0) -> Generator:
        """MPI_Reduce."""
        yield from _coll.reduce(self, sendbuf, recvbuf, op, root)

    def allreduce(self, sendbuf: Any, recvbuf: Any, op: str = "sum") -> Generator:
        """MPI_Allreduce."""
        algo = self.coll_algorithms.get("allreduce")
        if algo is not None:
            from repro.mpi.coll_algorithms import ALLREDUCE_ALGORITHMS

            yield from ALLREDUCE_ALGORITHMS[algo](self, sendbuf, recvbuf, op)
        else:
            yield from _coll.allreduce(self, sendbuf, recvbuf, op)

    def gather(self, sendbuf: Any, recvbuf: Optional[Any], root: int = 0) -> Generator:
        """MPI_Gather."""
        yield from _coll.gather(self, sendbuf, recvbuf, root)

    def allgather(self, sendbuf: Any, recvbuf: Any) -> Generator:
        """MPI_Allgather."""
        algo = self.coll_algorithms.get("allgather")
        if algo is not None:
            from repro.mpi.coll_algorithms import ALLGATHER_ALGORITHMS

            yield from ALLGATHER_ALGORITHMS[algo](self, sendbuf, recvbuf)
        else:
            yield from _coll.allgather(self, sendbuf, recvbuf)

    def scatter(self, sendbuf: Optional[Any], recvbuf: Any, root: int = 0) -> Generator:
        """MPI_Scatter."""
        yield from _coll.scatter(self, sendbuf, recvbuf, root)

    def alltoall(self, sendbuf: Any, recvbuf: Any) -> Generator:
        """MPI_Alltoall."""
        yield from _coll.alltoall(self, sendbuf, recvbuf)

    def alltoallv(self, sendbuf: Any, sendcounts: Sequence[int],
                  recvbuf: Any, recvcounts: Sequence[int]) -> Generator:
        """MPI_Alltoallv (byte-counts variant)."""
        yield from _coll.alltoallv(self, sendbuf, sendcounts, recvbuf, recvcounts)

    def gatherv(self, sendbuf: Any, recvbuf: Optional[Any],
                recvcounts: Optional[Sequence[int]] = None,
                root: int = 0) -> Generator:
        """MPI_Gatherv (byte-counts variant)."""
        yield from _coll.gatherv(self, sendbuf, recvbuf, recvcounts, root)

    def scatterv(self, sendbuf: Optional[Any],
                 sendcounts: Optional[Sequence[int]], recvbuf: Any,
                 root: int = 0) -> Generator:
        """MPI_Scatterv (byte-counts variant)."""
        yield from _coll.scatterv(self, sendbuf, sendcounts, recvbuf, root)

    def reduce_scatter(self, sendbuf: Any, recvbuf: Any,
                       op: str = "sum") -> Generator:
        """MPI_Reduce_scatter_block."""
        yield from _coll.reduce_scatter(self, sendbuf, recvbuf, op)

    def scan(self, sendbuf: Any, recvbuf: Any, op: str = "sum") -> Generator:
        """MPI_Scan (inclusive prefix reduction)."""
        yield from _coll.scan(self, sendbuf, recvbuf, op)

    # ------------------------------------------------- request management
    def cancel(self, req: Request) -> Generator:
        """MPI_Cancel for a pending *receive*: remove it from the posted
        queue.  Succeeds only if the receive has not begun matching."""
        if req.kind != "recv":
            raise MpiError("only receive requests can be cancelled here")
        yield from self.backend.cpu.execute("user", self.backend.params.mpi_call_us)
        if req.done or req.needs_finalize:
            return False
        removed = self.backend.matcher.posted.remove(req)
        if removed:
            req.cancelled = True
            req.complete(count=0)
        return removed

    # ------------------------------------------------------- one-sided
    def win_create(self, buf: Any) -> Generator:
        """MPI_Win_create (collective): expose ``buf`` — an int size, a
        ``WindowBuffer``, or any bytes-like — for one-sided access.
        Returns a :class:`repro.mpi.rma.Window`."""
        from repro.mpi import rma

        return (yield from rma.win_create(self, buf))

    def send_init(self, buf: Any, dest: int, tag: int = 0) -> "PersistentRequest":
        """MPI_Send_init: a persistent standard-mode send."""
        return PersistentRequest(self, "send", buf, dest, tag)

    def recv_init(self, buf: Any, source: int = ANY_SOURCE,
                  tag: int = ANY_TAG) -> "PersistentRequest":
        """MPI_Recv_init: a persistent receive."""
        return PersistentRequest(self, "recv", buf, source, tag)

    # ---------------------------------------------------- comm management
    def dup(self) -> "Communicator":
        """MPI_Comm_dup: same group, fresh contexts.

        Deterministic context derivation keeps all ranks consistent as
        long as they perform communicator operations in the same order
        (an MPI requirement anyway).
        """
        self._derived += 1
        ctx = self.context + ("dup", self._derived)
        return Communicator(self.backend, self.group, self.rank, ctx)

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """MPI_Comm_split (deterministic, no communication needed here
        because group membership is derivable from (color, key, rank)
        which every rank computes identically... only for the local
        callers: each rank must call with its own color/key).

        NOTE: in this simulation split is computed via the collective
        :func:`repro.mpi.collectives.split_exchange`; use
        ``yield from comm.split_collective(color, key)`` in programs.
        """
        raise MpiError("use 'yield from comm.split_collective(color, key)'")

    def split_collective(self, color: int, key: int = 0) -> Generator:
        """MPI_Comm_split as the collective it really is."""
        return (yield from _coll.split(self, color, key))


class PersistentRequest:
    """MPI persistent communication request (MPI_Send_init/Recv_init).

    ``start()`` begins one instance of the operation; ``wait()``
    completes it; the handle is reusable (start/wait repeatedly).  The
    classic use is a fixed communication pattern in an iteration loop —
    the argument processing is paid once.
    """

    def __init__(self, comm: Communicator, kind: str, buf: Any, peer: int,
                 tag: int):
        self.comm = comm
        self.kind = kind
        self.buf = buf
        self.peer = peer
        self.tag = tag
        self._active: Optional[Request] = None

    @property
    def active(self) -> bool:
        return self._active is not None and not self._active.done

    def start(self) -> Generator:
        """MPI_Start."""
        if self.active:
            raise MpiError("persistent request already active")
        if self.kind == "send":
            self._active = yield from self.comm.isend(self.buf, self.peer, self.tag)
        else:
            self._active = yield from self.comm.irecv(self.buf, self.peer, self.tag)

    def wait(self) -> Generator:
        """MPI_Wait on the active instance; re-arms for the next start."""
        if self._active is None:
            raise MpiError("persistent request was never started")
        status = yield from self.comm.wait(self._active)
        self._active = None
        return status
