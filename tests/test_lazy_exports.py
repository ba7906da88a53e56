"""Packages import eagerly only what a cluster run executes.

``repro.mpi``, ``repro.obs``, ``repro.faults`` and ``repro.cluster``
load their other public names on first use (``repro.lazy``), and a
fault-free cluster builds no fault injector.  Each check runs in a
fresh interpreter, so no module imported by another test can hide an
eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.mpi

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules a fault-free cluster run never executes
DEFERRED = (
    "repro.cluster.config",
    "repro.faults",
    "repro.faults.campaign",
    "repro.faults.plan",
    "repro.faults.points",
    "repro.mpi.derived",
    "repro.mpi.rma",
    "repro.mpi.topology",
    "repro.obs.chrometrace",
    "repro.obs.rma",
    "repro.obs.spans",
)

#: package -> defining module -> the public names it defines
EXPORTS = {
    "repro.mpi": {
        "repro.mpci.match": ("ANY_SOURCE", "ANY_TAG"),
        "repro.mpi.api": ("Communicator", "MpiError", "PersistentRequest"),
        "repro.mpi.derived": ("Contiguous", "Indexed", "Vector"),
        "repro.mpi.topology": ("CartComm", "dims_create"),
        "repro.mpi.protocol": ("BUFFERED", "EAGER", "READY", "RENDEZVOUS",
                               "STANDARD", "SYNCHRONOUS", "select_protocol"),
        "repro.mpi.request": ("Request", "Status"),
        "repro.mpi.rma": ("RmaError", "Window", "WindowBuffer", "win_create"),
    },
    "repro.obs": {
        "repro.obs.breakdown": ("CAPTURE_MODES", "PHASES", "Breakdown",
                                "TruncatedTraceError", "breakdown", "capture",
                                "lapi_breakdowns", "pipes_breakdowns",
                                "summarize"),
        "repro.obs.chrometrace": ("to_chrome_trace", "write_chrome_trace"),
        "repro.obs.registry": ("Counter", "Gauge", "Histogram",
                               "MetricsRegistry"),
        "repro.obs.rma": ("rma_op_phases", "rma_records", "rma_summary"),
        "repro.obs.spans": ("MessageTree", "Span", "build_span_trees",
                            "render_text"),
    },
    "repro.faults": {
        "repro.faults.campaign": ("CampaignResult", "SOAK_MATRIX", "WORKLOADS",
                                  "check_invariants", "quiesce",
                                  "run_campaign", "run_soak", "run_workload",
                                  "transport_quiet"),
        "repro.faults.plan": ("DispatcherStall", "DuplicateStorm",
                              "FaultEvent", "FaultPlan", "FifoSqueeze",
                              "InterruptStorm", "LossBurst", "NodeSlowdown",
                              "PLANS", "ReorderStorm", "SITES",
                              "builtin_plan"),
        "repro.faults.points": ("FaultInjector", "FaultPoint",
                                "PacketVerdict"),
    },
    "repro.cluster": {
        "repro.cluster.cluster": ("STACKS", "DeadlockError", "RankResult",
                                  "RunResult", "SPCluster"),
        "repro.cluster.config": ("PRESETS", "ClusterConfig", "preset"),
    },
}


def _fresh(code: str):
    """Run ``code`` in a new interpreter; its last stdout line is JSON."""
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


PINGPONG_EVERY_STACK = """
import json, sys
from repro import SPCluster, STACKS
from repro.bench.harness import pingpong_program, raw_lapi_pingpong_us

times = {}
for stack in (s for s in STACKS if s != "raw-lapi"):
    for interrupt in (False, True):
        cluster = SPCluster(2, stack=stack, interrupt_mode=interrupt)
        result = cluster.run(pingpong_program(64, 2, interrupt=interrupt))
        times[f"{stack}/{interrupt}"] = result.values[0]
times["raw-lapi"] = raw_lapi_pingpong_us(64, reps=2)
print(json.dumps({"times": times,
                  "loaded": sorted(m for m in sys.modules if m in DEFERRED)}))
"""


def test_a_pingpong_on_every_stack_loads_no_deferred_module():
    got = _fresh(f"DEFERRED = {DEFERRED!r}\n" + PINGPONG_EVERY_STACK)
    assert len(got["times"]) == 9
    assert all(t > 0 for t in got["times"].values())
    assert got["loaded"] == []


RESOLVE_EVERY_EXPORT = """
import importlib, json
bad = []
for package, modules in EXPORTS.items():
    pkg = importlib.import_module(package)
    listed = sorted(n for names in modules.values() for n in names)
    if sorted(pkg.__all__) != listed:
        bad.append(f"{package}.__all__ is {sorted(pkg.__all__)}")
    for module, names in modules.items():
        for name in names:
            if getattr(pkg, name) is not getattr(importlib.import_module(module), name):
                bad.append(f"{package}.{name} is not {module}.{name}")
    star = {}
    exec(f"from {package} import *", star)
    if not set(pkg.__all__) <= set(star):
        bad.append(f"from {package} import * misses {set(pkg.__all__) - set(star)}")
print(json.dumps(bad))
"""


def test_every_exported_name_is_its_defining_modules_object():
    assert _fresh(f"EXPORTS = {EXPORTS!r}\n" + RESOLVE_EVERY_EXPORT) == []


def test_breakdown_is_the_function_after_the_spans_submodule_loads():
    got = _fresh("""
import inspect, json, sys
import repro.obs.spans, repro.obs.chrometrace
from repro.obs import breakdown
print(json.dumps([inspect.isfunction(breakdown),
                  breakdown is sys.modules["repro.obs.breakdown"].breakdown]))
""")
    assert got == [True, True]


def test_a_fault_free_cluster_builds_its_injector_on_first_read():
    got = _fresh("""
import json, sys
from repro import SPCluster
cluster = SPCluster(2)
before = "repro.faults" in sys.modules
injector = cluster.fault_injector
print(json.dumps([before, injector is cluster.fault_injector,
                  injector.plan.events == (), "repro.faults" in sys.modules]))
""")
    assert got == [False, True, True, True]


def test_lazy_names_are_listed_and_unknown_names_raise():
    assert {"Window", "CartComm", "Vector"} <= set(dir(repro.mpi))
    with pytest.raises(AttributeError, match="'repro.mpi' has no attribute 'nope'"):
        repro.mpi.nope
