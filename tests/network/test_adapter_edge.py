"""Adapter edge behaviour: send-FIFO back-pressure, ISR toggling,
process-free stages."""

import numpy as np
import pytest

from repro.machine import MachineParams, NodeStats
from repro.network import Adapter, Packet, SwitchFabric
from repro.obs import MetricsRegistry
from repro.sim import Environment


def build(**overrides):
    env = Environment()
    params = MachineParams(**overrides)
    fabric = SwitchFabric(env, params, rng=np.random.default_rng(0))
    stats = [NodeStats(), NodeStats()]
    adapters = [Adapter(env, params, fabric, i, stats[i]) for i in range(2)]
    return env, params, adapters, stats


def pkt(src, dst, n=100):
    return Packet(src=src, dst=dst, header={"kind": "t"}, payload=b"z" * n,
                  header_bytes=30)


def test_send_fifo_backpressure_blocks_producer():
    env, params, adapters, stats = build(adapter_send_fifo=2,
                                         dma_bandwidth_MBps=0.001)
    admitted = []

    def producer():
        for i in range(6):
            yield adapters[0].enqueue_send(pkt(0, 1, 1000))
            admitted.append((i, env.now))

    env.process(producer())
    env.run(until=5000.0)
    # with a glacial DMA, exactly one packet in DMA plus a full FIFO of
    # two is admitted at t=0; the fourth sender waits for the DMA
    assert admitted == [(0, 0.0), (1, 0.0), (2, 0.0)]


def test_interrupt_mode_toggle_fires_for_backlog():
    env, params, adapters, stats = build(interrupt_latency_us=5.0)
    seen = []

    def isr(adapter):
        while True:
            p = adapter.poll()
            if p is None:
                break
            seen.append(p.pkt_id)
        yield env.timeout(0)

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1))

    env.process(sender())
    env.run()
    assert adapters[1].rx_pending == 1  # nobody drained it
    # now install the ISR and switch interrupt mode on: backlog serviced
    adapters[1].set_interrupt_handler(isr)
    adapters[1].set_interrupt_mode(True)
    env.run()
    assert len(seen) == 1
    assert adapters[1].rx_pending == 0


def test_isr_exception_propagates():
    env, params, adapters, stats = build()

    def isr(adapter):
        yield env.timeout(1.0)
        raise RuntimeError("handler bug")

    adapters[1].set_interrupt_handler(isr)
    adapters[1].set_interrupt_mode(True)

    def sender():
        yield adapters[0].enqueue_send(pkt(0, 1))

    env.process(sender())
    with pytest.raises(RuntimeError, match="handler bug"):
        env.run()


def test_adapter_stages_start_no_processes():
    """DMA, wire and receive DMA run as kernel callbacks: a packet's trip
    from ``enqueue_send`` to the host FIFO resumes no simulated process
    but its sender."""
    registry = MetricsRegistry()
    env = Environment(metrics=registry)
    params = MachineParams()
    fabric = SwitchFabric(env, params, rng=np.random.default_rng(0))
    adapters = [Adapter(env, params, fabric, i, NodeStats()) for i in range(2)]

    def sender():
        for _ in range(5):
            yield adapters[0].enqueue_send(pkt(0, 1))

    env.process(sender())
    env.run()
    assert adapters[1].rx_pending == 5
    counters = registry.snapshot()["counters"]
    assert counters["sim.processes_started"] == 1
    assert counters["sim.process_switches"] == 1
