"""FaultInjector / FaultPoint verdict mechanics and fault.* metrics."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.faults import (
    DispatcherStall,
    DuplicateStorm,
    FaultInjector,
    FaultPlan,
    FifoSqueeze,
    LossBurst,
    NodeSlowdown,
    ReorderStorm,
)
from repro.obs import MetricsRegistry


def _packet(src=0, dst=1, **header):
    return SimpleNamespace(src=src, dst=dst, header=header)


def _injector(*events, metrics=None, **kw):
    return FaultInjector(plan=FaultPlan("t", tuple(events)),
                         rng=np.random.default_rng(0), metrics=metrics, **kw)


# ------------------------------------------------------------------ points
def test_inert_sites_yield_no_point():
    inj = _injector(LossBurst(0.0, 100.0, rate=1.0))
    assert inj.point("fabric") is not None
    for site in ("adapter", "dispatcher", "cpu", "storm"):
        assert inj.point(site) is None


def test_node_filter_prunes_events():
    inj = _injector(FifoSqueeze(0.0, 100.0, capacity=1, node=1))
    assert inj.point("adapter", node=0) is None
    assert inj.point("adapter", node=1) is not None


def test_base_loss_keeps_fabric_point_alive():
    inj = FaultInjector(rng=np.random.default_rng(0), base_loss_rate=0.5)
    assert inj.point("fabric") is not None
    quiet = FaultInjector(rng=np.random.default_rng(0))
    assert quiet.point("fabric") is None


# ---------------------------------------------------------------- verdicts
def test_loss_burst_drops_inside_window_only():
    reg = MetricsRegistry()
    point = _injector(LossBurst(10.0, 10.0, rate=1.0),
                      metrics=reg).point("fabric")
    assert point.on_packet(_packet(), now=5.0) is None
    verdict = point.on_packet(_packet(), now=12.0)
    assert verdict is not None and verdict.copies == 0
    assert point.on_packet(_packet(), now=25.0) is None
    assert reg.snapshot()["counters"]["fault.injected_drops"] == 1


def test_duplicate_storm_yields_staggered_copies():
    reg = MetricsRegistry()
    point = _injector(DuplicateStorm(0.0, 100.0, rate=1.0, copies=3),
                      metrics=reg).point("fabric")
    verdict = point.on_packet(_packet(), now=1.0)
    assert verdict.copies == 3
    assert len(verdict.extra_delays_us) == 3
    assert len(set(verdict.extra_delays_us)) == 3  # distinct arrivals
    assert reg.snapshot()["counters"]["fault.duplicates"] == 2


def test_reorder_storm_adds_bounded_delay():
    point = _injector(
        ReorderStorm(0.0, 100.0, extra_skew_us=4.0, extra_jitter_us=30.0)
    ).point("fabric")
    verdict = point.on_packet(_packet(), now=1.0)
    assert verdict.copies == 1
    (extra,) = verdict.extra_delays_us
    assert 4.0 <= extra < 34.0


def test_packet_node_scoping():
    point = _injector(LossBurst(0.0, 100.0, rate=1.0, node=1)).point("fabric")
    assert point.on_packet(_packet(src=0, dst=2), now=1.0) is None
    assert point.on_packet(_packet(src=0, dst=1), now=1.0).copies == 0


# ------------------------------------------------- non-packet fault sites
def test_fifo_capacity_clamped_inside_window():
    reg = MetricsRegistry()
    point = _injector(FifoSqueeze(10.0, 10.0, capacity=1, node=0),
                      metrics=reg).point("adapter", node=0)
    assert point.fifo_capacity(8, now=5.0) == 8
    assert point.fifo_capacity(8, now=12.0) == 1
    assert point.fifo_capacity(8, now=30.0) == 8
    assert reg.snapshot()["counters"]["fault.fifo_squeezes"] == 1


def test_dispatcher_stall_window():
    point = _injector(DispatcherStall(0.0, 50.0, stall_us=40.0)
                      ).point("dispatcher", node=0)
    assert point.stall_us(now=10.0) == 40.0
    assert point.stall_us(now=60.0) == 0.0


def test_cpu_slowdown_window():
    point = _injector(NodeSlowdown(0.0, 50.0, factor=2.5, node=1)
                      ).point("cpu", node=1)
    assert point.slowdown(now=10.0) == 2.5
    assert point.slowdown(now=99.0) == 1.0


def test_overlapping_events_take_worst_case():
    point = _injector(
        LossBurst(0.0, 100.0, rate=0.0),
        FifoSqueeze(0.0, 100.0, capacity=4),
        FifoSqueeze(0.0, 100.0, capacity=2),
    ).point("adapter")
    assert point.fifo_capacity(8, now=1.0) == 2


# ------------------------------------------------------------------ safety
def test_inactive_plan_draws_no_randomness():
    """Armed-but-idle injection must not consume the RNG stream."""
    rng = np.random.default_rng(7)
    # fabric point is None only with no fabric events and no loss floor
    assert FaultInjector(rng=rng).point("fabric") is None
    point = FaultInjector(plan=FaultPlan("late", (LossBurst(1e9, 1.0),)),
                          rng=rng).point("fabric")
    before = rng.bit_generator.state["state"]["state"]
    for _ in range(50):
        assert point.on_packet(_packet(), now=5.0) is None
    assert rng.bit_generator.state["state"]["state"] == before


def test_injector_rejects_bad_base_rate():
    with pytest.raises(ValueError):
        FaultInjector(base_loss_rate=1.0)
