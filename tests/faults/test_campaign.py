"""Campaign runner: soak, invariants, metrics surfacing, span instants."""

import pytest

from repro.faults import (
    CampaignResult,
    SOAK_MATRIX,
    builtin_plan,
    check_invariants,
    quiesce,
    run_soak,
    run_workload,
)


# --------------------------------------------------------------- the soak
@pytest.fixture(scope="module")
def soak_results():
    return run_soak(stack="lapi-enhanced", seed=0)


def test_soak_matrix_passes(soak_results):
    failed = [(r.plan, r.workload, r.violations)
              for r in soak_results if not r.ok]
    assert not failed, failed
    assert len(soak_results) == len(SOAK_MATRIX)


def test_soak_actually_injected_faults(soak_results):
    """A chaos soak that injects nothing proves nothing."""
    damage = sum(
        r.fault_counters.get("fault.injected_drops", 0)
        + r.fault_counters.get("fault.extra_delays", 0)
        + r.fault_counters.get("fault.fifo_squeezes", 0)
        for r in soak_results
    )
    assert damage > 0
    assert any(r.retransmissions > 0 for r in soak_results)


def test_soak_results_serialise(soak_results):
    import json

    doc = json.dumps([r.to_dict() for r in soak_results])
    assert "loss-burst" in doc


# ----------------------------------------------------- recovery machinery
def test_faulted_payload_matches_reference():
    _, _, reference = run_workload("pingpong", plan=None, seed=3)
    cluster, _, payload = run_workload(
        "pingpong", plan=builtin_plan("loss-burst"), seed=3)
    assert quiesce(cluster) is not None
    assert payload == reference
    assert not check_invariants(cluster, payload, reference)


def test_fault_counters_surface_in_cluster_snapshot():
    cluster, _, _ = run_workload(
        "pingpong", plan=builtin_plan("loss-burst"), seed=0)
    quiesce(cluster)
    counters = cluster.metrics_snapshot()["cluster"]["counters"]
    assert counters.get("fault.injected_drops", 0) > 0


def test_invariant_checker_flags_corruption():
    cluster, _, payload = run_workload("pingpong", plan=None, seed=0)
    quiesce(cluster)
    violations = check_invariants(cluster, payload, b"not-the-reference")
    assert any("payload corruption" in v for v in violations)


def test_invariant_checker_flags_stuck_state():
    cluster, _, payload = run_workload("pingpong", plan=None, seed=0)
    quiesce(cluster)
    assert not check_invariants(cluster, payload, payload)
    # manufacture damage: a pending send that never completed and a
    # sequence parked in a SenderWindow
    cluster.backends[0].pending_sends["zombie"] = object()
    lapi = next(l for l in cluster.lapis if l is not None)
    flow = next(iter(lapi._flow_tx.values()))
    flow.window.send("orphan-packet")
    violations = check_invariants(cluster, payload, payload)
    assert any("sends stuck pending" in v for v in violations)
    assert any("stuck in SenderWindow" in v for v in violations)


@pytest.mark.parametrize("stack", ("native", "lapi-enhanced"))
def test_invariant_checker_flags_stranded_rma(stack):
    """A window left unfreed with a get still in flight is named on
    both stacks: the window, and the reply nobody will deliver (LAPI's
    reply table; on native, the reply receive left posted)."""
    from repro import SPCluster
    from repro.mpi import Vector

    def program(comm, rank, size):
        win = yield from comm.win_create(32)
        if rank == 0:
            yield from win.get(bytearray(16), 1, 0,
                               datatype=Vector(count=2, blocklength=4, stride=8))

    cluster = SPCluster(2, stack=stack)
    cluster.run(program)
    violations = check_invariants(cluster, b"", b"")
    assert any("RMA windows never freed" in v for v in violations)
    reply = ("RMA replies never delivered" if stack != "native"
             else "posted receives never matched")
    assert any(reply in v for v in violations), violations


def test_streaming_recovers_from_reorder_storm():
    """Regression: a deferred eager message that finished assembling
    into its EA buffer before the announcement gap filled used to leave
    its matched request incomplete forever (receiver stuck in waitall).
    Reorder storms make deferred announcements routine."""
    _, _, reference = run_workload("streaming", plan=None, seed=0)
    cluster, _, payload = run_workload(
        "streaming", plan=builtin_plan("reorder-storm"), seed=0)
    assert quiesce(cluster) is not None
    assert not check_invariants(cluster, payload, reference)


def test_streaming_recovers_from_chaos():
    _, _, reference = run_workload("streaming", plan=None, seed=4)
    cluster, _, payload = run_workload(
        "streaming", plan=builtin_plan("chaos"), seed=4)
    assert quiesce(cluster) is not None
    assert not check_invariants(cluster, payload, reference)


def test_streaming_workload_recovers_from_fifo_squeeze():
    _, _, reference = run_workload("streaming", plan=None, seed=1)
    cluster, _, payload = run_workload(
        "streaming", plan=builtin_plan("fifo-squeeze"), seed=1)
    assert quiesce(cluster) is not None
    assert not check_invariants(cluster, payload, reference)


def test_campaign_result_shape():
    r = CampaignResult(plan="p", workload="w", stack="s", seed=0, ok=True)
    d = r.to_dict()
    assert set(d) == {
        "plan", "workload", "stack", "seed", "ok", "violations",
        "elapsed_us", "quiesce_us", "retransmissions", "packets_dropped",
        "fault_counters",
    }


# ----------------------------------------------------------- span instants
def test_fault_instants_reach_span_trees_and_perfetto():
    from repro.obs import breakdown as _  # noqa: F401 (module sanity)
    from repro.obs import capture
    from repro.obs.chrometrace import to_chrome_trace
    from repro.obs.spans import build_span_trees

    cluster = capture("lapi-enhanced", 256, mode="polling", seed=0,
                      fault_plan=builtin_plan("loss-burst", rate=0.4))
    fault_records = [r for r in cluster.tracer.records if r.layer == "fault"]
    assert fault_records, "no fault instants traced"
    assert all(r.event in ("drop", "duplicate", "delay")
               for r in fault_records)

    trees = build_span_trees(cluster.tracer, allow_truncated=True)
    names = {s.name for t in trees.values()
             for leg in t.legs for s, _ in leg.walk()}
    names |= {s.name for t in trees.values() for s, _ in t.root.walk()}
    assert names & {"drop", "duplicate", "delay"}, names

    doc = to_chrome_trace(trees)
    instants = [e for e in doc["traceEvents"]
                if e.get("ph") == "i" and e["name"] in ("drop", "delay")]
    assert instants
