"""Seeded job lists for the four benchmark workloads, and one job's run.

A *case* is one set of inputs (message sizes, delays, NAS kernel,
RMA operation); every case runs once on each of the four MPI stacks,
so the stacks are compared on identical inputs.  Everything a job
needs is drawn here from the workload seed; the simulator only sees
the finished :class:`Job`.

Message sizes are log-uniform and *stratified*: case ``i`` of ``n``
draws its size from the ``i``-th of ``n`` equal-probability slices of
the log range.  Every seed therefore covers the whole size range in the
same proportions, which keeps the summed simulated time of one seed
within about a percent of any other seed's.

Each job checks its own output (received bytes, NAS ``verified`` flags,
window contents against a serial reference) and reports a failure
instead of raising, so one broken job never stops a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

import repro
import repro.nas
from repro.cluster import DeadlockError
from repro.nas import KERNELS

STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced")
WORKLOADS = ("eager-pingpong", "stream-bulk", "nas-4node", "rma-epochs")

#: cases per measured job kind: (cases per seed, cases also run by the
#: traced pass — every ``cases // traced``-th one, so the slice spans
#: the sizes)
CASES = {
    "eager-pingpong": {"pingpong-poll": (60, 12), "pingpong-intr": (60, 12)},
    "stream-bulk": {"stream": (32, 8)},
    "nas-4node": {"nas": (4 * len(KERNELS), len(KERNELS))},
    "rma-epochs": {"rma-fence-pingpong": (40, 4), "rma-lock-put": (40, 4),
                   "rma-get": (40, 4), "rma-accumulate": (40, 4),
                   "rma-fetch-and-op": (40, 4), "rma-cas": (40, 4)},
}

EAGER_MAX = 4096            # MachineParams().eager_limit: the eager path
STREAM_MIN, STREAM_MAX = 16 * 1024, 1024 * 1024   # all rendezvous
STREAM_WINDOW = 2           # messages in flight per stream job
RMA_MIN, RMA_MAX = 8, 64 * 1024
PINGPONG_REPS = 4
LATE_POST_MAX_DELAY_US = 80.0
RMA_REPS = 3

#: cases per seed of the late-post race census (``--trace 1`` only).
#: Its jobs are not measured operations: they count the LAPI stacks'
#: open receive race, which deadlocks some of them, see README.md
CENSUS = {"eager-pingpong": {"late-post": 1200}}


@dataclass
class Job:
    """One case on one stack: everything the run needs, fixed by the seed."""

    workload: str
    kind: str
    stack: str
    case: int
    nodes: int
    #: receive progress by interrupts instead of polling inside MPI calls
    interrupt: bool
    #: a measured job: counts toward ``sim_us.<stack>`` and a failure
    #: invalidates the run; the census jobs are not reference jobs
    reference: bool
    #: also run by the traced (per-layer) pass
    traced: bool
    #: cluster seed and payload seed
    seed: int
    args: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one job execution produced."""

    ok: bool
    error: Optional[str]
    #: simulated elapsed time (None when the job did not complete)
    sim_us: Optional[float]
    #: ``RunResult.metrics`` (None when the job did not complete)
    metrics: Optional[dict]


# ------------------------------------------------------------ job lists
def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw from each of ``n`` equal slices of [0, 1), in
    slice order."""
    return (np.arange(n) + rng.random(n)) / n


def _log_sizes(u, lo: int, hi: int) -> list[int]:
    """Map uniforms to sizes in ``[lo, hi]``, log-uniform in ``size + 1``."""
    a, b = math.log(lo + 1), math.log(hi + 1)
    return [min(hi, max(lo, int(math.exp(a + x * (b - a))) - 1)) for x in u]


def _stratified(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """``n`` stratified log-uniform sizes in seeded order."""
    return _log_sizes(rng.permutation(_strata(rng, n)), lo, hi)


def _case_args(kind: str, n: int, rng: np.random.Generator) -> list[dict]:
    if kind == "pingpong-poll":
        return [{"size": s} for s in _stratified(rng, n, 0, EAGER_MAX)]
    if kind == "pingpong-intr":
        # the receiver watches the buffer's last byte, so at least 1 B
        return [{"size": s} for s in _stratified(rng, n, 1, EAGER_MAX)]
    if kind == "late-post":
        sizes = _stratified(rng, n, 0, EAGER_MAX)
        delays = rng.uniform(0.0, LATE_POST_MAX_DELAY_US, n)
        return [{"size": s, "delay_us": float(d)} for s, d in zip(sizes, delays)]
    if kind == "stream":
        # case i streams one message from each of strata i*W .. i*W+W-1,
        # so every seed has the same spread of job sizes
        sizes = _log_sizes(_strata(rng, n * STREAM_WINDOW), STREAM_MIN, STREAM_MAX)
        return [{"sizes": sizes[i * STREAM_WINDOW:(i + 1) * STREAM_WINDOW]}
                for i in range(n)]
    if kind == "nas":
        names = sorted(KERNELS)
        return [{"kernel": names[i * len(names) // n]} for i in range(n)]
    if kind in ("rma-fetch-and-op", "rma-cas"):
        # 2..8 operations per job, stratified like the sizes
        return [{"ops": 2 + int(u * 7)} for u in rng.permutation(_strata(rng, n))]
    # data-moving RMA: sizes in whole 8-byte words (accumulate is int64)
    return [{"size": max(8, s - s % 8)}
            for s in _stratified(rng, n, RMA_MIN, RMA_MAX)]


def _job_list(workload: str, seed: int) -> list[Job]:
    """Every case of the workload, measured and census, on every stack,
    in seeded order."""
    if workload not in CASES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    nodes = 4 if workload == "nas-4node" else 2
    kinds = [(kind, n, n_traced, True) for kind, (n, n_traced)
             in CASES[workload].items()]
    kinds += [(kind, n, 0, False) for kind, n
              in CENSUS.get(workload, {}).items()]
    jobs = []
    case = 0
    for kind, n, n_traced, reference in kinds:
        for i, args in enumerate(_case_args(kind, n, rng)):
            case_seed = int(rng.integers(1 << 31))
            for stack in STACKS:
                jobs.append(Job(
                    workload=workload, kind=kind, stack=stack, case=case,
                    nodes=nodes, interrupt=kind in ("pingpong-intr", "late-post"),
                    reference=reference,
                    traced=reference and i % (n // n_traced) == 0,
                    seed=case_seed, args=args,
                ))
            case += 1
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's measured job list for ``seed``."""
    return [j for j in _job_list(workload, seed) if j.reference]


def make_census(workload: str, seed: int) -> list[Job]:
    """The workload's late-post race census for ``seed`` (empty for all
    workloads but ``eager-pingpong``)."""
    return [j for j in _job_list(workload, seed) if not j.reference]


# ------------------------------------------------------------- payloads
def payload(seed: int, n: int, salt: int = 0) -> bytes:
    return np.random.default_rng([seed, salt]).bytes(n)


def _marked(seed: int, n: int, i: int) -> bytes:
    """Payload ``i`` of a watched-buffer ping-pong: its last byte is a
    nonzero marker the receiver spins on."""
    data = bytearray(payload(seed, n, i))
    data[-1] = i % 255 + 1
    return bytes(data)


# ------------------------------------------------------------- programs
def _pingpong_poll(comm, rank, size, job):
    n = job.args["size"]
    buf = bytearray(n)
    ok = True
    yield from comm.barrier()
    for i in range(PINGPONG_REPS):
        data = payload(job.seed, n, i)
        if rank == 0:
            yield from comm.send(data, dest=1)
            yield from comm.recv(buf, source=1)
        else:
            yield from comm.recv(buf, source=0)
            yield from comm.send(bytes(buf), dest=0)
        ok = ok and buf == data
    return ok


def _pingpong_intr(comm, rank, size, job):
    """Fig 13 method: the responder pre-posts its receives and spins on
    the buffers' last byte without entering MPI, so delivery is driven
    by interrupts."""
    n = job.args["size"]
    cpu, poll_us = comm.backend.cpu, comm.backend.params.poll_check_us
    ok = True
    if rank == 1:
        bufs = [bytearray(n) for _ in range(PINGPONG_REPS)]
        reqs = []
        for i in range(PINGPONG_REPS):
            reqs.append((yield from comm.irecv(bufs[i], source=0)))
        yield from comm.barrier()
        for i in range(PINGPONG_REPS):
            while bufs[i][-1] != i % 255 + 1:
                yield from cpu.execute("user", poll_us)
            yield from comm.wait(reqs[i])
            ok = ok and bufs[i] == _marked(job.seed, n, i)
            yield from comm.send(bytes(bufs[i]), dest=0)
        return ok
    buf = bytearray(n)
    yield from comm.barrier()
    for i in range(PINGPONG_REPS):
        data = _marked(job.seed, n, i)
        yield from comm.send(data, dest=1)
        yield from comm.recv(buf, source=1)
        ok = ok and buf == data
    return ok


def _late_post(comm, rank, size, job):
    """One eager message whose receive is posted after a seeded delay:
    the early-arrival path, and the window between matching the early
    queue and posting the receive."""
    n = job.args["size"]
    data = payload(job.seed, n)
    if rank == 0:
        yield from comm.send(data, dest=1)
        return True
    buf = bytearray(n)
    yield comm.env.timeout(job.args["delay_us"])
    req = yield from comm.irecv(buf, source=0)
    yield from comm.wait(req)
    return buf == data


def _stream(comm, rank, size, job):
    """A window of back-to-back rendezvous messages from rank 0 to 1."""
    sizes = job.args["sizes"]
    reqs = []
    if rank == 0:
        for k, n in enumerate(sizes):
            reqs.append((yield from comm.isend(payload(job.seed, n, k), dest=1, tag=k)))
        yield from comm.waitall(reqs)
        return True
    bufs = [bytearray(n) for n in sizes]
    for k, buf in enumerate(bufs):
        reqs.append((yield from comm.irecv(buf, source=0, tag=k)))
    yield from comm.waitall(reqs)
    return all(buf == payload(job.seed, len(buf), k) for k, buf in enumerate(bufs))


def _rma_fence_pingpong(comm, rank, size, job):
    """Fence-synchronised put ping-pong: each epoch one side puts into
    the other's window, the other checks it and puts it back."""
    n = job.args["size"]
    win = yield from comm.win_create(n)
    yield from win.fence()
    ok = True
    for i in range(RMA_REPS):
        data = payload(job.seed, n, i)
        if rank == 0:
            yield from win.put(data, 1, 0)
        yield from win.fence()
        if rank == 1:
            ok = ok and win.mem == data
            yield from win.put(bytes(win.mem), 0, 0)
        yield from win.fence()
        if rank == 0:
            ok = ok and win.mem == data
    yield from win.free()
    return ok


def _rma_lock_put(comm, rank, size, job):
    """Passive target: exclusive lock, put, unlock, ``RMA_REPS`` times
    into consecutive slots of the target's window."""
    n = job.args["size"]
    win = yield from comm.win_create(n * RMA_REPS)
    yield from comm.barrier()
    if rank == 0:
        for i in range(RMA_REPS):
            yield from win.lock(1, exclusive=True)
            yield from win.put(payload(job.seed, n, i), 1, i * n)
            yield from win.unlock(1)
    yield from comm.barrier()
    ok = rank == 0 or win.mem == b"".join(
        payload(job.seed, n, i) for i in range(RMA_REPS))
    yield from win.free()
    return ok


def _rma_get(comm, rank, size, job):
    """Each rank gets the other's seeded window contents in one epoch."""
    n = job.args["size"]
    win = yield from comm.win_create(payload(job.seed, n, rank))
    buf = bytearray(n)
    yield from win.fence()
    yield from win.get(buf, 1 - rank, 0)
    yield from win.fence()
    yield from win.free()
    return buf == payload(job.seed, n, 1 - rank)


def _rma_accumulate(comm, rank, size, job):
    """Both ranks sum int64 vectors into both windows in one epoch."""
    words = job.args["size"] // 8
    rng = np.random.default_rng([job.seed, 99])
    init = rng.integers(-1 << 40, 1 << 40, (2, words), dtype=np.int64)
    contrib = rng.integers(-1 << 40, 1 << 40, (2, words), dtype=np.int64)
    win = yield from comm.win_create(init[rank].tobytes())
    yield from win.fence()
    for t in (0, 1):
        yield from win.accumulate(contrib[rank], t, 0, op="sum", dtype="<i8")
    yield from win.fence()
    yield from win.free()
    expect = init[rank] + contrib[0] + contrib[1]
    return win.mem == expect.tobytes()


def _rma_atomics(comm, rank, size, job):
    """A locked chain of fetch_and_op (sum) or compare_and_swap on one
    word of rank 1's window; rank 0 checks every returned old value and
    rank 1 the final word against a serial replay."""
    ops = job.args["ops"]
    rng = np.random.default_rng([job.seed, 7])
    start = int(rng.integers(-1 << 40, 1 << 40))
    values = [int(v) for v in rng.integers(-1 << 20, 1 << 20, ops)]
    # CAS: every third compare is deliberately stale (no swap)
    stale = [bool(s) for s in rng.random(ops) < 1 / 3]
    olds, word = [], start
    for v, bad in zip(values, stale):
        olds.append(word)
        if job.kind == "rma-fetch-and-op":
            word += v
        elif not bad:
            word = v
    win = yield from comm.win_create(8)
    if rank == 1:
        win.mem.write_word(0, start)
    yield from comm.barrier()
    ok = True
    if rank == 0:
        yield from win.lock(1, exclusive=False)
        expect = start
        for v, bad, old in zip(values, stale, olds):
            if job.kind == "rma-fetch-and-op":
                got = yield from win.fetch_and_op(v, 1, 0, op="sum")
            else:
                got = yield from win.compare_and_swap(
                    v, expect + 1 if bad else expect, 1, 0)
                expect = expect if bad else v
            ok = ok and got == old
        yield from win.unlock(1)
    yield from comm.barrier()
    if rank == 1:
        ok = win.mem.read_word(0) == word
    yield from win.free()
    return ok


PROGRAMS = {
    "pingpong-poll": _pingpong_poll,
    "pingpong-intr": _pingpong_intr,
    "late-post": _late_post,
    "stream": _stream,
    "rma-fence-pingpong": _rma_fence_pingpong,
    "rma-lock-put": _rma_lock_put,
    "rma-get": _rma_get,
    "rma-accumulate": _rma_accumulate,
    "rma-fetch-and-op": _rma_atomics,
    "rma-cas": _rma_atomics,
}


# ------------------------------------------------------------------ run
def build_cluster(job: Job, trace: bool = False) -> repro.SPCluster:
    return repro.SPCluster(job.nodes, stack=job.stack, seed=job.seed,
                           interrupt_mode=job.interrupt, trace=trace)


def check(job: Job, values: list[Any]) -> Optional[str]:
    """The job's output check; ``None`` when every rank's output is right."""
    if job.kind == "nas":
        bad = [r for r, v in enumerate(values) if not v.verified]
        return f"NAS {job.args['kernel']} not verified on ranks {bad}" if bad else None
    bad = [r for r, v in enumerate(values) if v is not True]
    return f"output differs from reference on ranks {bad}" if bad else None


def run_job(job: Job, cluster: Optional[repro.SPCluster] = None,
            program=None) -> Outcome:
    """Run ``job`` (on ``cluster`` if given) and check its output.

    ``program`` replaces the job's rank program (the traced pass passes
    an instrumented copy).  A deadlock, a wrong output or any exception
    is reported in the outcome, never raised.
    """
    try:
        if cluster is None:
            cluster = build_cluster(job)
        if job.kind == "nas":
            res = repro.nas.run_kernel(job.args["kernel"], cluster)
        else:
            res = cluster.run(program or PROGRAMS[job.kind], job)
        error = check(job, res.values)
    except DeadlockError as exc:
        return Outcome(False, f"deadlock: {exc}", None, None)
    except Exception as exc:  # keep running; the failure is counted
        return Outcome(False, f"{type(exc).__name__}: {exc}", None, None)
    return Outcome(error is None, error, res.elapsed_us, res.metrics)
