"""Both fabric models' delivery times against a plain-Python reference.

Random packet sequences (source, destination, route, size, send time)
on 2-8 nodes are injected straight into a fabric, with no adapters in
the way: each destination's ``_fabric_deliver`` records when it sees
each packet.  The reference recomputes every delivery time and every
drop with the same float operations the fabric performs:

* ``delay``: ``route_base_us + route * route_skew_us + jitter``;
* ``staged``: the walk over the packet's butterfly links, each link
  held until the packet's cut-through head passed plus its full wire
  time (``busy_until``), then the jitter.

Both models draw the fault verdict before the jitter.  A fabric built
without a fault point takes its static loss floor from
``packet_loss_rate`` on its own rng; a plan's point draws from the
injector's rng.  The reference asks an identical verdict source, so
every random draw lines up.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import DuplicateStorm, FaultInjector, FaultPlan, ReorderStorm
from repro.machine import MachineParams
from repro.network import Packet, SwitchFabric
from repro.network.staged import StagedFabric, butterfly_links
from repro.sim import Environment

HEADER_BYTES = 30
PLAN = FaultPlan("fabric-storms", (
    DuplicateStorm(5.0, 30.0, rate=0.5, copies=3),
    ReorderStorm(20.0, 40.0, extra_skew_us=1.5, extra_jitter_us=6.0),
))


class _Sink:
    """Stands in for an adapter: records each arrival's time."""

    def __init__(self, env, node_id, log):
        self.node_id = node_id

        def deliver(packet):
            log.append((packet.pkt_id, env.now))

        self._fabric_deliver = deliver


def _stages(n):
    p = 1
    while p < max(2, n):
        p <<= 1
    return max(1, p.bit_length() - 1)


def simulate(model, params, n, sends, seed, with_plan):
    env = Environment()
    injector = (FaultInjector(PLAN, rng=np.random.default_rng(seed + 1),
                              base_loss_rate=params.packet_loss_rate)
                if with_plan else None)
    fabric_cls = StagedFabric if model == "staged" else SwitchFabric
    fabric = fabric_cls(env, params, rng=np.random.default_rng(seed),
                        faults=injector.point("fabric") if injector else None)
    log = []
    for node in range(n):
        fabric.attach(_Sink(env, node, log))
    packets = []
    for src, dst, route, size, at in sends:
        pkt = Packet(src=src, dst=dst, header={"kind": "t"},
                     payload=bytes(size), header_bytes=HEADER_BYTES, route=route)
        packets.append(pkt)
        env.call_later(at, lambda ev: fabric.transmit(ev._value), pkt)
    env.run()
    index = {p.pkt_id: k for k, p in enumerate(packets)}
    got = [[] for _ in packets]
    for pkt_id, t in log:
        got[index[pkt_id]].append(t)
    return [sorted(ts) for ts in got], fabric


def reference(model, params, n, sends, seed, with_plan):
    """Per packet, its sorted delivery times (empty when dropped)."""
    rng = np.random.default_rng(seed)
    if with_plan:
        point = FaultInjector(PLAN, rng=np.random.default_rng(seed + 1),
                              base_loss_rate=params.packet_loss_rate).point("fabric")
    else:
        point = FaultInjector(rng=rng, base_loss_rate=params.packet_loss_rate
                              ).point("fabric")
    stages = _stages(n)
    busy = {}
    out = [None] * len(sends)
    # transmits run in send-time order, ties in injection order
    for k in sorted(range(len(sends)), key=lambda k: (sends[k][4], k)):
        src, dst, route, size, now = sends[k]
        pkt = Packet(src=src, dst=dst, header={"kind": "t"},
                     payload=bytes(size), header_bytes=HEADER_BYTES, route=route)
        verdict = point.on_packet(pkt, now) if point is not None else None
        copies, extras = 1, ()
        if verdict is not None:
            copies, extras = verdict.copies, verdict.extra_delays_us
        if copies == 0:
            out[k] = []
            continue
        jitter = params.route_jitter_us
        if model == "staged":
            occupancy = pkt.wire_bytes * params.wire_us_per_byte
            t = now
            for link in butterfly_links(src, dst, stages):
                key = (route, *link)
                free_at = busy.get(key, t)
                t = max(t, free_at) + params.switch_hop_us
                busy[key] = max(t, free_at) + occupancy
            if jitter > 0.0:
                t += rng.random() * jitter
            delay = t - now
        else:
            delay = (params.route_base_us + route * params.route_skew_us
                     + (rng.random() * jitter if jitter > 0 else 0.0))
        out[k] = sorted(now + (delay + (extras[c] if c < len(extras) else 0.0))
                        for c in range(copies))
    return out


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 8))
    route_count = draw(st.integers(1, 4))
    params = MachineParams(
        route_count=route_count,
        route_skew_us=draw(st.sampled_from([0.0, 0.6, 2.5])),
        route_jitter_us=draw(st.sampled_from([0.0, 0.4, 3.0])),
        switch_hop_us=draw(st.sampled_from([0.15, 0.7])),
        link_bandwidth_MBps=draw(st.sampled_from([20.0, 150.0])),
        packet_loss_rate=draw(st.sampled_from([0.0, 0.0, 0.3])),
    )
    sends = draw(st.lists(
        st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(0, route_count - 1),
            st.integers(0, 1024),
            st.sampled_from([0.0, 1.0, 2.5, 7.25])
            | st.floats(0.0, 80.0, allow_nan=False, allow_infinity=False),
        ),
        min_size=1, max_size=40,
    ))
    return n, params, sends, draw(st.integers(0, 2**16))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(), model=st.sampled_from(["delay", "staged"]),
       with_plan=st.booleans())
def test_every_delivery_and_drop_matches_the_reference(scenario, model, with_plan):
    n, params, sends, seed = scenario
    params = params.replace(fabric_model=model)
    got, fabric = simulate(model, params, n, sends, seed, with_plan)
    want = reference(model, params, n, sends, seed, with_plan)
    assert got == want
    assert fabric.dropped == sum(1 for ts in want if not ts)
    assert fabric.delivered == sum(len(ts) for ts in want)


def test_reference_sees_contention_and_storms():
    """The reference is not vacuous: queueing, drops and duplicates all
    happen on a fixed incast."""
    params = MachineParams(fabric_model="staged", route_count=1,
                           link_bandwidth_MBps=20.0, packet_loss_rate=0.3)
    sends = [(src, 0, 0, 1024, 10.0 + 0.1 * i)
             for i, src in enumerate([1, 2, 3, 4, 5, 6, 7] * 3)]
    want = reference("staged", params, 8, sends, 11, True)
    got, fabric = simulate("staged", params, 8, sends, 11, True)
    assert got == want
    assert fabric.contention_us > 0.0
    assert any(not ts for ts in want)
    assert any(len(ts) > 1 for ts in want)
