"""The adapter's timeline against a plain-Python tandem-queue reference.

One producer on node 0 streams packets to node 1 through the adapter's
three stages: send DMA (fed by the bounded send FIFO), link
serialisation (fed by a two-slot link queue) and receive DMA (fed by
the unbounded adapter SRAM).  A poller on node 1 pops one packet from
the bounded host receive FIFO every ``poll_us``; a packet that finds
the FIFO full when its receive DMA ends is dropped.

The reference computes every packet's admission time, ``on_dma_done``
time, ``pkt_tx`` time and ``pkt_rx`` / ``fifo_drop`` time from the
queueing recurrences alone, with the same float operations the
simulator performs, so the times must match exactly.  Bandwidths are
drawn so that each stage in turn is the bottleneck, including a link
queue that is still full when the next DMA finishes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, FifoSqueeze
from repro.machine import MachineParams, NodeStats
from repro.network import Adapter, Packet, SwitchFabric
from repro.sim import Environment
from repro.trace import Tracer

HEADER_BYTES = 30
#: packets the link holds: two queued behind the one on the wire
LINK_SLOTS = 2


def reference(params, sizes, gaps, poll_us, squeeze=None):
    """Per-packet ``(admit, dma_done, tx, rx_or_None, drop_or_None)``."""
    n = len(sizes)
    wire = [HEADER_BYTES + s for s in sizes]
    fifo = params.adapter_send_fifo
    admit, attempt, start, dma, release, wstart, tx = ([0.0] * n for _ in range(7))
    for k in range(n):
        attempt[k] = (0.0 if k == 0 else admit[k - 1]) + gaps[k]
        # the send FIFO holds packets admitted but not yet taken by DMA
        admit[k] = attempt[k] if k < fifo else max(attempt[k], start[k - fifo])
        start[k] = admit[k] if k == 0 else max(admit[k], release[k - 1])
        dma[k] = start[k] + params.dma_cost(wire[k])
        # the DMA'd packet waits for a link slot before DMA takes the next
        release[k] = dma[k] if k < LINK_SLOTS else max(dma[k], wstart[k - LINK_SLOTS])
        wstart[k] = release[k] if k == 0 else max(release[k], tx[k - 1])
        tx[k] = wstart[k] + params.wire_cost(wire[k])

    # fabric: round-robin routes, no jitter; same-instant arrivals keep
    # their transmit order
    arrive = [tx[k] + (params.route_base_us
                       + (k % params.route_count) * params.route_skew_us + 0.0)
              for k in range(n)]
    order = sorted(range(n), key=lambda k: (arrive[k], k))
    rx_done = {}
    t = 0.0
    for k in order:
        t = max(arrive[k], t) + params.dma_cost(wire[k])
        rx_done[k] = t

    def capacity(now):
        cap = params.adapter_recv_fifo
        if squeeze is not None and squeeze.active(now):
            cap = min(cap, squeeze.capacity)
        return cap

    # host receive FIFO: receive-DMA completions against poller ticks
    rx, drop = [None] * n, [None] * n
    depth, tick = 0, poll_us
    for k in sorted(range(n), key=lambda k: (rx_done[k], k)):
        while tick < rx_done[k]:
            depth = max(0, depth - 1)
            tick += poll_us
        if depth >= capacity(rx_done[k]):
            drop[k] = rx_done[k]
        else:
            rx[k] = rx_done[k]
            depth += 1
    return [(admit[k], dma[k], tx[k], rx[k], drop[k]) for k in range(n)]


def simulate(params, sizes, gaps, poll_us, squeeze=None):
    env = Environment()
    fabric = SwitchFabric(env, params, rng=np.random.default_rng(0))
    tracer = Tracer(env)
    stats = [NodeStats(), NodeStats()]
    for i, s in enumerate(stats):
        s.node_id, s.tracer = i, tracer
    adapters = [Adapter(env, params, fabric, i, stats[i]) for i in range(2)]
    if squeeze is not None:
        plan = FaultPlan("squeeze", (squeeze,))
        adapters[1].faults = FaultInjector(plan=plan).point("adapter", node=1)
    n = len(sizes)
    admit, dma = [None] * n, [None] * n

    def on_dma(k):
        def record(_ev):
            dma[k] = env.now
        return record

    def producer():
        for k, (size, gap) in enumerate(zip(sizes, gaps)):
            yield env.timeout(gap)
            done = env.event()
            done.callbacks.append(on_dma(k))
            yield adapters[0].enqueue_send(
                Packet(src=0, dst=1, header={"kind": "t", "seq": k},
                       payload=bytes(size), header_bytes=HEADER_BYTES), done)
            admit[k] = env.now

    def poller():
        popped = 0
        while popped + stats[1].packets_dropped < n:
            yield env.timeout(poll_us)
            popped += adapters[1].poll() is not None

    env.process(producer())
    env.process(poller())
    env.run()

    def times(node, event):
        got = [None] * n
        for r in tracer.filter(node=node, layer="adapter", event=event):
            assert got[r.fields["seq"]] is None
            got[r.fields["seq"]] = r.time
        return got

    tx, rx, drop = times(0, "pkt_tx"), times(1, "pkt_rx"), times(1, "fifo_drop")
    routes = [r.fields["route"] for r in tracer.filter(event="pkt_tx")]
    assert routes == [k % params.route_count for k in range(n)]
    return list(zip(admit, dma, tx, rx, drop))


#: (DMA MB/s, link MB/s): DMA-bound, link-bound (the link queue fills
#: and holds finished DMAs back), balanced, and receive-DMA-bound
RATES = [(20.0, 150.0), (400.0, 15.0), (110.0, 150.0), (150.0, 600.0)]


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 24))
    sizes = draw(st.lists(st.integers(0, 1024), min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.0, 40.0), min_size=n, max_size=n))
    dma_bw, link_bw = draw(st.sampled_from(RATES))
    params = MachineParams(
        adapter_send_fifo=draw(st.integers(1, 4)),
        adapter_recv_fifo=draw(st.integers(1, 4)),
        dma_bandwidth_MBps=dma_bw, link_bandwidth_MBps=link_bw,
        route_jitter_us=0.0, route_skew_us=draw(st.sampled_from([0.0, 0.6, 9.0])),
    )
    poll_us = draw(st.floats(0.3, 60.0))
    return params, sizes, gaps, poll_us


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_adapter_matches_tandem_queue_reference(case):
    params, sizes, gaps, poll_us = case
    assert simulate(params, sizes, gaps, poll_us) == reference(
        params, sizes, gaps, poll_us)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.floats(0.0, 200.0), st.floats(1.0, 400.0),
       st.integers(1, 2))
def test_adapter_matches_reference_under_fifo_squeeze(case, at_us, dur_us, cap):
    params, sizes, gaps, poll_us = case
    params = params.replace(adapter_recv_fifo=8)
    squeeze = FifoSqueeze(at_us=at_us, duration_us=dur_us, node=1, capacity=cap)
    assert simulate(params, sizes, gaps, poll_us, squeeze) == reference(
        params, sizes, gaps, poll_us, squeeze)


def test_link_queue_full_holds_back_the_next_dma():
    """Slow link, fast DMA: the fourth packet's DMA ends while two
    packets queue behind the one on the wire, so DMA stays occupied and
    the fifth packet's DMA starts only when the link frees a slot."""
    params = MachineParams(adapter_send_fifo=8, dma_bandwidth_MBps=400.0,
                           link_bandwidth_MBps=15.0, route_jitter_us=0.0)
    sizes, gaps = [1000] * 6, [0.0] * 6
    got = simulate(params, sizes, gaps, 1.0)
    assert got == reference(params, sizes, gaps, 1.0)
    dma_done = [g[1] for g in got]
    tx = [g[2] for g in got]
    d = params.dma_cost(1000 + HEADER_BYTES)
    ends = [d]
    for _ in range(3):
        ends.append(ends[-1] + d)
    assert dma_done[:4] == ends
    # packet 4 waits for packet 1 to start on the wire (packet 0's end)
    assert dma_done[4] == tx[0] + d
