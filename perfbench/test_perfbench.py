"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.layers import ENTRY_POINTS, LayerProfiler  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def smoke_slice(jobs):
    """The first job of every (kind, stack) pair in the list."""
    seen, out = set(), []
    for job in jobs:
        if (job.kind, job.stack) not in seen:
            seen.add((job.kind, job.stack))
            out.append(job)
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    jobs = smoke_slice(wl.make_jobs(workload, 3))
    tally, metrics = run.measure(wl, jobs, 0, run.HostClock())
    assert tally.ref_failures == []
    assert tally.total_attempted == run.MIN_PASSES * len(jobs)
    assert set(metrics) | {"setup_s"} == END_TO_END
    assert all(tally.sim_us[s] > 0 for s in wl.STACKS)


def test_cli_prints_exactly_the_declared_metrics():
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rma-epochs",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert out.returncode == 0, out.stdout + out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert set(result["metrics"]) == names
        for name, m in result["metrics"].items():
            assert set(m) == {"value", "unit"}, name


def test_traced_slice_reports_every_layer_metric_and_accounts_for_wall():
    jobs = smoke_slice(wl.make_jobs("eager-pingpong", 4))
    for job in jobs:
        job.traced = True
    tally, metrics, report, accounted = run.traced(wl, jobs)
    assert accounted, report
    assert set(metrics) == PER_LAYER
    assert tally.ref_failures == []


def _late_post(stack, size, delay_us):
    return wl.Job(workload="eager-pingpong", kind="late-post", stack=stack,
                  case=0, nodes=2, interrupt=True, reference=False,
                  traced=False, seed=1, args={"size": size, "delay_us": delay_us})


#: an 8-byte late post that strands the message on the LAPI stacks
#: (the receive is posted behind its own early arrival)
DEADLOCKING_DELAY_US = 31.2


def test_late_post_deadlock_is_counted_not_raised():
    jobs = [_late_post(s, 8, DEADLOCKING_DELAY_US) for s in wl.STACKS]
    tally = run.census(wl, jobs)
    assert tally.failed["native"] == 0
    for stack in ("lapi-base", "lapi-counters", "lapi-enhanced"):
        assert tally.failed[stack] == 1
    assert tally.ref_failures == []  # late posts are not reference jobs
    outcome = wl.run_job(jobs[1])
    assert not outcome.ok and outcome.error.startswith("deadlock")


def test_census_is_not_measured_and_shows_in_the_traced_metrics():
    assert all(j.reference for j in wl.make_jobs("eager-pingpong", 9))
    census = wl.make_census("eager-pingpong", 9)
    assert census and all(j.kind == "late-post" and not j.reference
                          for j in census)
    assert wl.make_census("stream-bulk", 9) == []
    jobs = smoke_slice(wl.make_jobs("eager-pingpong", 4))
    for job in jobs:
        job.traced = True
    deadlocking = [_late_post(s, 8, DEADLOCKING_DELAY_US) for s in wl.STACKS]
    tally, metrics, _, _ = run.traced(wl, jobs, deadlocking)
    assert tally.total_failed == 0
    assert metrics["late_post.failed.native"]["value"] == 0
    assert metrics["late_post.failed.lapi-base"]["value"] == 1


def test_reference_failure_is_reported():
    bad = wl.Job(workload="nas-4node", kind="nas", stack="native", case=0,
                 nodes=4, interrupt=False, reference=True, traced=False,
                 seed=1, args={"kernel": "no-such-kernel"})
    tally, _ = run.measure(wl, [bad], 0, run.HostClock())
    assert tally.failed["native"] == run.MIN_PASSES
    assert len(tally.ref_failures) == 1


def test_no_run_uses_more_than_one_process(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the benchmark must stay in one process")

    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(subprocess.Popen, "__init__", forbidden)
    monkeypatch.setattr(multiprocessing.Process, "start", forbidden)
    threads = threading.active_count()
    for workload in wl.WORKLOADS:
        jobs = smoke_slice(wl.make_jobs(workload, 2))[:4]
        tally, _ = run.measure(wl, jobs, 0, run.HostClock())
        assert tally.ref_failures == []
    for job in jobs:
        job.traced = True
    run.traced(wl, jobs)
    assert threading.active_count() == threads


def test_same_seed_same_jobs_and_counts_new_seed_new_jobs():
    a, b = wl.make_jobs("stream-bulk", 7), wl.make_jobs("stream-bulk", 7)
    assert a == b
    assert wl.make_jobs("stream-bulk", 8) != a
    job = a[0]
    assert run.fingerprint(wl.run_job(job)) == run.fingerprint(wl.run_job(job))


def test_repeated_job_that_changes_aborts():
    job = smoke_slice(wl.make_jobs("rma-epochs", 1))[0]
    tally = run.Tally(wl.STACKS)
    outcome = wl.run_job(job)
    tally.record(0, job, outcome)
    outcome.sim_us += 1.0
    with pytest.raises(run.DeterminismError):
        tally.record(0, job, outcome)


def test_profiler_restores_every_entry_point():
    before = [(cls, n, vars(cls)[n]) for _l, cls, names in ENTRY_POINTS
              for n in names]
    with LayerProfiler():
        pass
    assert all(vars(cls)[n] is fn for cls, n, fn in before)


def test_sizes_cover_the_stated_ranges():
    for workload in wl.WORKLOADS:
        for job in wl.make_jobs(workload, 11) + wl.make_census(workload, 11):
            if job.kind == "stream":
                assert all(wl.STREAM_MIN <= s <= wl.STREAM_MAX
                           for s in job.args["sizes"])
            elif job.kind in ("pingpong-poll", "pingpong-intr", "late-post"):
                assert 0 <= job.args["size"] <= wl.EAGER_MAX
                assert 0 <= job.args.get("delay_us", 0) <= 80
            elif "size" in job.args:
                assert wl.RMA_MIN <= job.args["size"] <= wl.RMA_MAX
