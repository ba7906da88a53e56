#!/usr/bin/env python3
"""The repository benchmark: one workload, all four MPI stacks.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eager-pingpong --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
seeded job list runs in whole passes, at least ``MIN_PASSES`` of them
and more while another still fits in ``--seconds``; the first pass fixes
the simulated times.  Every job's output is checked, every repeated job must
reproduce its simulated time and counts exactly, and a failed reference
job makes the run invalid (exit 1).

``--trace 1`` runs the workload's traced slice three times — untraced,
with every layer's entry points timed (:mod:`perfbench.layers`), and
with the simulator's own tracer on for the Fig 10 phase breakdown —
then the late-post race census once, and prints the per-layer metrics.
The census' jobs are not measured operations: the LAPI stacks' open
receive race deadlocks some of them, and their failures are reported
as the ``late_post.failed.<stack>`` counts, not in ``failed``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: set-ups timed per run; ``setup_s`` is their median (the first also
#: imports numpy and is the slowest)
SETUP_REPS = 7
#: passes over the job list a measured run makes at least
MIN_PASSES = 3
#: processor seconds :func:`calibrate` takes on the reference host
#: (this repository's 2-vCPU build VM); host times are reported in
#: reference-host seconds, see :class:`HostClock`
CALIBRATION_S = 0.004
#: processor seconds of jobs between two calibration samples
SEGMENT_S = 0.1
#: largest share of the traced wall time the layer self times may leave
#: unaccounted before the traced run is rejected
ACCOUNTING_BOUND = 0.05


class DeterminismError(AssertionError):
    """A repeated job did not reproduce its simulated time or counts."""


# --------------------------------------------------------------- set-up
def _fresh_workloads():
    """Import ``repro`` and the job generator as a new process would,
    after evicting both from ``sys.modules``."""
    for name in list(sys.modules):
        if (name == "repro" or name.startswith("repro.")
                or name in ("perfbench.workloads", "perfbench.layers")):
            del sys.modules[name]
    return importlib.import_module("perfbench.workloads")


def setup(workload: str, seed: int, reps: int, clock: "HostClock"):
    """``(workloads module, job list, [seconds per set-up])``: import,
    job-list generation and the first cluster build, ``reps`` times."""
    times = []
    for _ in range(reps):
        gc.collect()  # start each from a clean heap, as a new process does
        t0 = process_time()
        wl = _fresh_workloads()
        jobs = wl.make_jobs(workload, seed)
        wl.build_cluster(jobs[0])
        times.append(clock.segment([process_time() - t0])[0])
    return wl, jobs, times


# ---------------------------------------------------------- host clock
def calibrate() -> float:
    """Processor seconds of a fixed pure-Python workload: a heap-ordered
    loop resuming 200 generators, the interpreter paths the simulator
    spends its time in, but none of its code."""
    def proc(i):
        for k in range(20):
            yield (k * 7 + i) % 13 + 1

    t0 = process_time()
    gens = [proc(i) for i in range(200)]
    heap = [(next(g), i) for i, g in enumerate(gens)]
    heapq.heapify(heap)
    while heap:
        now, i = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (now + gens[i].send(now), i))
        except StopIteration:
            pass
    return process_time() - t0


class HostClock:
    """Converts measured processor seconds to reference-host seconds.

    The benchmark runs on small shared VMs whose speed changes by tens
    of percent, and at times by 1.7x, over spells of seconds to minutes
    as neighbours come and go; processor time excludes the spells in
    which the VM does not run at all, but not the ones in which it runs
    slowly.  So a segment of work is bracketed by two runs of
    :func:`calibrate` and scaled by ``CALIBRATION_S`` over their mean:
    a segment measured while the host runs at half speed is reported at
    the length it would have had at the reference speed.
    """

    def __init__(self) -> None:
        self._last = calibrate()

    def segment(self, seconds: list[float]) -> list[float]:
        """Scale the processor times of a segment that just ended."""
        now = calibrate()
        scale = CALIBRATION_S / ((self._last + now) / 2)
        self._last = now
        return [t * scale for t in seconds]


# ------------------------------------------------------------ helpers
def fingerprint(outcome) -> tuple:
    """What a repeated run of the same job must reproduce exactly."""
    # imported here, after set-up has (re)imported repro
    from perfbench.layers import layer_counts

    if outcome.metrics is None:
        return (outcome.ok, outcome.error)
    counts = layer_counts(outcome.metrics)
    return (outcome.ok, float(outcome.sim_us), tuple(sorted(counts.items())))


class Tally:
    """Attempts, failures and reference simulated time per stack."""

    def __init__(self, stacks) -> None:
        self.attempted = dict.fromkeys(stacks, 0)
        self.failed = dict.fromkeys(stacks, 0)
        self.sim_us = dict.fromkeys(stacks, 0.0)
        self.ref_failures: list[str] = []
        #: job index -> fingerprint of its first execution
        self.first: dict[int, tuple] = {}

    def record(self, idx: int, job, outcome) -> None:
        self.attempted[job.stack] += 1
        if not outcome.ok:
            self.failed[job.stack] += 1
        fp = fingerprint(outcome)
        if idx not in self.first:
            self.first[idx] = fp
            if job.reference:
                if outcome.ok:
                    self.sim_us[job.stack] += outcome.sim_us
                else:
                    self.ref_failures.append(
                        f"{job.kind}/{job.stack} case {job.case}: {outcome.error}")
        elif fp != self.first[idx]:
            raise DeterminismError(
                f"job {idx} ({job.kind}/{job.stack} case {job.case}) did not "
                f"reproduce: {fp} != {self.first[idx]}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ------------------------------------------------------------ untraced
def measure(wl, jobs, seconds: float, clock: HostClock):
    """Run the whole job list ``MIN_PASSES`` times, then again while
    another whole pass still fits in ``seconds``.  Returns ``(tally,
    end-to-end metrics)``.

    Every execution's host time is its processor time in reference-host
    seconds (:class:`HostClock`), and all executions of all passes count.
    It includes collecting the job's garbage: a finished cluster is a
    web of reference cycles, and leaving it to the cyclic collector
    would bill it to whichever later job happened to trigger a
    collection.
    """
    tally = Tally(wl.STACKS)
    times: list[float] = []
    passed = passes = 0
    t_start = perf_counter()
    while True:
        segment: list[float] = []
        for idx, job in enumerate(jobs):
            t0 = process_time()
            outcome = wl.run_job(job)
            gc.collect()
            segment.append(process_time() - t0)
            tally.record(idx, job, outcome)
            passed += outcome.ok
            if sum(segment) >= SEGMENT_S or idx == len(jobs) - 1:
                times += clock.segment(segment)
                segment = []
        passes += 1
        if (passes >= MIN_PASSES
                and (perf_counter() - t_start) * (passes + 1) / passes > seconds):
            break
    metrics = {
        "jobs_per_s": metric(passed / sum(times), "jobs/s"),
        "job_ms_p50": metric(statistics.median(times) * 1e3, "ms"),
        "job_ms_p90": metric(
            statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3, "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for stack in wl.STACKS:
        metrics[f"sim_us.{stack}"] = metric(tally.sim_us[stack], "us")
    return tally, metrics


# -------------------------------------------------------------- traced
#: phases that are zero by construction: the Pipes breakdown has no
#: header-handler, thread or completion phase, LAPI's interrupt handler
#: has no hysteresis, and only the base variant switches threads
ZERO_PHASES = frozenset(
    [("native", p) for p in ("hdr_handler", "thread_switch", "completion")]
    + [(s, "interrupt") for s in ("lapi-base", "lapi-counters", "lapi-enhanced")]
    + [(s, "thread_switch") for s in ("lapi-counters", "lapi-enhanced")]
)


def census(wl, jobs) -> Tally:
    """Run every late-post census job once, untraced; a deadlock or a
    wrong payload is counted in the tally's ``failed``."""
    tally = Tally(wl.STACKS)
    for idx, job in enumerate(jobs):
        tally.record(idx, job, wl.run_job(job))
    return tally


def traced(wl, jobs, census_jobs=()):
    """Per-layer metrics over the job list's traced slice, and the
    late-post race census of ``census_jobs``.

    Returns ``(tally, metrics, report lines, accounting ok)``; the tally
    covers the traced slice only.
    """
    from repro.obs import PHASES, lapi_breakdowns, pipes_breakdowns

    from perfbench.layers import (COUNT_UNITS, LAYERS, LayerProfiler, add_counts,
                                  layer_counts)

    chosen = [(i, j) for i, j in enumerate(jobs) if j.traced]
    tally = Tally(wl.STACKS)

    t0 = perf_counter()
    for i, job in chosen:
        tally.record(i, job, wl.run_job(job))
    wall_plain = perf_counter() - t0

    counts: dict = {}
    with LayerProfiler() as prof:
        programs = {k: prof.wrap(fn, "app") for k, fn in wl.PROGRAMS.items()}
        t0 = perf_counter()
        for i, job in chosen:
            outcome = wl.run_job(job, program=programs.get(job.kind))
            tally.record(i, job, outcome)
            if outcome.metrics is not None:
                add_counts(counts, layer_counts(outcome.metrics))
        wall_traced = perf_counter() - t0

    # simulated phases: the simulator's own tracer, in a pass of its own
    # so that its record-keeping stays out of the layer times.  The
    # breakdowns pair a message's records by the sender's message number
    # alone, which pairs wrong records once a node hears from two
    # senders (negative wire phases on 4 nodes), so only 2-node jobs.
    phase_sum = {s: dict.fromkeys(PHASES, 0.0) for s in wl.STACKS}
    phase_n = dict.fromkeys(wl.STACKS, 0)
    for i, job in chosen:
        if job.nodes != 2:
            continue
        cluster = wl.build_cluster(job, trace=True)
        outcome = wl.run_job(job, cluster=cluster)
        tally.record(i, job, outcome)
        if not outcome.ok:
            continue
        split = pipes_breakdowns if job.stack == "native" else lapi_breakdowns
        for b in split(cluster.tracer):
            phase_n[job.stack] += 1
            for p in PHASES:
                phase_sum[job.stack][p] += b.phases[p]

    self_total = sum(prof.self_s.values())
    unaccounted = wall_traced - self_total
    ok = abs(unaccounted) <= ACCOUNTING_BOUND * wall_traced

    m = {}
    for layer in LAYERS:
        name = "mpi.rma_self_ms" if layer == "mpi.rma" else f"{layer}.self_ms"
        m[name] = metric(prof.self_s[layer] * 1e3, "ms")
    for name, unit in COUNT_UNITS.items():
        m[name] = metric(counts[name], unit)
    m["sim.ns_per_event"] = metric(
        prof.self_s["sim"] * 1e9 / max(1, counts["sim.events"]), "ns")
    m["cluster.build_ms"] = metric(prof.build_s * 1e3, "ms")
    m["cluster.snapshot_ms"] = metric(prof.snapshot_s * 1e3, "ms")
    m["mpci.matches"] = metric(prof.matches, "count")
    m["mpci.inspected_per_match"] = metric(
        prof.inspected / max(1, prof.match_calls), "entries/match")
    m["mpi.calls"] = metric(prof.calls["mpi"] + prof.calls["mpi.rma"], "count")
    m["mpi.polls_per_msg"] = metric(
        counts["mpi.polls"] / max(1, counts["mpi.msgs"]), "polls/msg")
    m["obs.calls"] = metric(prof.calls["obs"], "count")
    for stack in wl.STACKS:
        for p in PHASES:
            if (stack, p) in ZERO_PHASES:
                continue
            m[f"phase.{stack}.{p}_us"] = metric(
                phase_sum[stack][p] / max(1, phase_n[stack]), "us")
    m["trace.overhead_s"] = metric(wall_traced - wall_plain, "s")
    m["trace.unaccounted_ms"] = metric(unaccounted * 1e3, "ms")
    races = census(wl, census_jobs)
    for stack in wl.STACKS:
        m[f"late_post.failed.{stack}"] = metric(races.failed[stack], "count")

    report = [f"{'layer':<10} {'self ms':>10} {'share':>7} {'calls':>10}"]
    for layer in LAYERS:
        s = prof.self_s[layer]
        report.append(f"{layer:<10} {s * 1e3:10.1f} {s / wall_traced:7.1%} "
                      f"{prof.calls[layer]:10d}")
    report.append(f"{'unaccounted':<10} {unaccounted * 1e3:10.1f} "
                  f"{unaccounted / wall_traced:7.1%}  (bound "
                  f"{ACCOUNTING_BOUND:.0%}: {'ok' if ok else 'EXCEEDED'})")
    report.append(f"traced wall {wall_traced:.3f} s, untraced {wall_plain:.3f} s, "
                  f"trace.overhead_s {wall_traced - wall_plain:.3f}")
    report.append(f"phase.* from {sum(phase_n.values())} messages of 2-node jobs"
                  + ("" if any(phase_n.values()) else " (none here: reported as 0)"))
    report.append(f"late-post race census: {races.total_attempted} jobs, failed "
                  + ", ".join(f"{s} {races.failed[s]}/{races.attempted[s]}"
                              for s in wl.STACKS))
    return tally, m, report, ok


# ----------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    # one thread as well as one process: a BLAS worker thread spinning
    # beside the simulator on a small machine only adds noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    clock = HostClock()
    wl, jobs, setup_times = setup(args.workload, args.seed,
                                  1 if args.trace else SETUP_REPS, clock)
    # what set-up left behind is never garbage: keep the per-job
    # collections to what the job itself allocated
    gc.collect()
    gc.freeze()

    if args.trace:
        tally, metrics, report, accounted = traced(
            wl, jobs, wl.make_census(args.workload, args.seed))
    else:
        tally, metrics = measure(wl, jobs, args.seconds, clock)
        metrics = {"setup_s": metric(statistics.median(setup_times), "s"),
                   **metrics}
        report, accounted = [], True

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(jobs)}  "
          f"trace {args.trace}")
    print(f"{'stack':<14} {'attempted':>9} {'failed':>7} {'error_rate':>10} "
          f"{'sim_us':>14}")
    for stack in wl.STACKS:
        a, f = tally.attempted[stack], tally.failed[stack]
        print(f"{stack:<14} {a:9d} {f:7d} {f / max(1, a):10.5f} "
              f"{tally.sim_us[stack]:14.3f}")
    for line in report:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for failure in tally.ref_failures:
        print(f"REFERENCE JOB FAILED: {failure}")
    correct = not tally.ref_failures and accounted
    print(json.dumps({
        "correct": correct,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
