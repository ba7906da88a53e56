"""Reliability edge cases on both reliable layers: RTO recovery,
duplicates, window limits, ack policy.

Pipes and LAPI share one :class:`repro.transport.ReliableFlows` engine,
so each case runs on both, with the flow parameters (``rto_us``,
``ack_delay_us``, ``ack_every``, ``window_pkts``) set through the
stack's own ``pipe_*`` / ``lapi_*`` machine parameters.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, LossBurst
from repro.lapi import LapiError
from tests.lapi.conftest import LapiRig
from tests.pipes.test_endpoint import Rig, frame_bytes

FLOW_PARAMS = ("rto_us", "ack_delay_us", "ack_every", "window_pkts")


class _Side:
    """Node 0 sends ``data`` to node 1 on one stack; records what node 1
    hands to the layer above."""

    def __init__(self, stack, rig, endpoints):
        self.stack = stack
        self.rig = rig
        self.env = rig.env
        self.params = rig.params
        self.stats = rig.stats
        self.endpoints = endpoints

    def run_poller(self, i):
        def poller():
            ep = self.endpoints[i]
            while True:
                yield from ep.dispatch("user")
                yield ep.hal.wait_rx()

        self.env.process(poller(), name=f"poll{i}")


class _PipesSide(_Side):
    def __init__(self, seed, params):
        rig = Rig(seed=seed, **params)
        super().__init__("pipes", rig, rig.pipes)

    def send(self, data):
        yield from self.rig.pipes[0].send_frame("user", 1, {"type": "e"}, data)

    def deliveries(self):
        return len(self.rig.delivered[1])

    def received(self, n):
        return frame_bytes(self.rig.delivered[1], n)


class _LapiSide(_Side):
    def __init__(self, seed, params):
        rig = LapiRig(seed=seed, **params)
        super().__init__("lapi", rig, rig.tasks)
        self.buf = bytearray(1 << 16)
        self.writes = []
        side = self

        class Sink:
            def write(self, off, data):
                side.writes.append(off)
                side.buf[off : off + len(data)] = data

        rig.tasks[1].register_handler(
            "sink", lambda lapi, src, uhdr, mlen: (Sink(), None, None))

    def send(self, data):
        yield from self.rig.tasks[0].amsend("user", 1, "sink", {}, data)

    def deliveries(self):
        return len(self.writes)

    def received(self, n):
        return bytes(self.buf[:n])


def make_side(stack, seed=3, **params):
    prefix = {"pipes": "pipe_", "lapi": "lapi_"}[stack]
    params = {(prefix + k if k in FLOW_PARAMS else k): v
              for k, v in params.items()}
    return (_PipesSide if stack == "pipes" else _LapiSide)(seed, params)


stacks = pytest.mark.parametrize("stack", ("pipes", "lapi"))


@stacks
def test_total_blackhole_then_recovery_via_rto(stack):
    """Every first-transmission packet is lost; only retransmissions
    get through (the fabric drops everything for the first 1000 us)."""
    side = make_side(stack, seed=1, packet_payload=512)
    fabric = side.rig.fabric
    blackhole = FaultPlan("blackhole", (LossBurst(0.0, 1000.0, rate=1.0),))
    fabric.faults = FaultInjector(plan=blackhole,
                                  rng=fabric.rng).point("fabric")
    side.run_poller(1)
    data = b"r" * 1500  # 3 packets

    def sender():
        yield from side.send(data)
        yield side.env.timeout(1000.0)
        # drive retransmission progress from this side
        while side.deliveries() < 3 and side.env.now < 1e6:
            yield from side.endpoints[0].dispatch("user")
            yield side.env.timeout(500.0)

    side.env.process(sender())
    side.env.run(until=2e6)
    assert side.received(1500) == data
    assert side.stats[0].retransmissions >= 1
    assert side.endpoints[0].flows.inflight() == ({}, {})


@stacks
def test_foreign_packet_kind_raises_the_stacks_error(stack):
    """A packet of the other stack's kind reaching a dispatcher is a
    wiring bug, reported in the receiving stack's own error class."""
    side = make_side(stack)
    foreign, error = {"pipes": ("lapi", RuntimeError),
                      "lapi": ("pipe", LapiError)}[stack]

    def proc():
        yield from side.endpoints[0].hal.send("user", 1, {"kind": foreign}, b"")
        yield side.env.timeout(100.0)
        yield from side.endpoints[1].dispatch("user")

    side.env.process(proc())
    with pytest.raises(error, match=f"foreign packet kind '{foreign}'") as info:
        side.env.run(until=1e4)
    assert type(info.value) is error


@stacks
def test_duplicate_data_packets_acked_not_redelivered(stack):
    """Force a duplicate by retransmitting when nothing was lost."""
    side = make_side(stack, packet_payload=512, rto_us=200.0,
                     ack_delay_us=5000.0, ack_every=1000)
    side.run_poller(1)
    data = b"d" * 400

    # acks are heavily delayed, so the RTO fires and retransmits a
    # packet the receiver already has
    side.env.process(side.send(data))
    side.env.run(until=3000.0)
    # the duplicate was acked at once, long before the delayed ack is due
    assert side.stats[0].retransmissions >= 1
    assert side.stats[1].acks_sent >= 1
    assert side.endpoints[0].flows.inflight() == ({}, {})
    side.env.run(until=1e5)
    # delivered exactly once despite the duplicate on the wire
    assert side.deliveries() == 1
    assert side.received(400) == data


@stacks
def test_retransmit_timeout_backs_off_and_is_traced(stack):
    """Nothing is ever acked: the oldest packet is resent after a timeout
    that doubles up to 16x, each resend traced under the stack's layer."""
    from repro.trace import Tracer

    side = make_side(stack, packet_payload=256, rto_us=100.0)
    tracer = side.stats[0].tracer = Tracer(side.env)
    side.env.process(side.send(b"b" * 256))
    side.env.run(until=20_000.0)
    records = tracer.filter(event="retransmit")
    assert {r.layer for r in records} == {side.stack}
    assert len(records) == side.stats[0].retransmissions
    times = [r.time for r in records]
    gaps = [round((b - a) / 100.0) for a, b in zip(times, times[1:])]
    assert gaps[0] == 2
    # a gap may span two timeouts of the current length (the timer can
    # fire a rounding error short of a full timeout and wait once more),
    # never more, and the timeout stops growing at 16x
    assert set(gaps) <= {2, 4, 8, 16, 32}
    assert gaps.count(16) >= 4


@stacks
def test_sender_stalled_on_window_wakes_when_another_dispatcher_takes_the_ack(stack):
    """A poller on the sending node consumes the acks; the sender
    stalled on a one-packet window must still be woken by them."""
    side = make_side(stack, packet_payload=256, window_pkts=1, ack_every=1)
    side.run_poller(1)
    side.run_poller(0)
    data = bytes(range(256)) * 16  # 16 packets

    side.env.process(side.send(data))
    side.env.run(until=2e5)
    assert side.deliveries() == 16
    assert side.received(len(data)) == data


@stacks
def test_window_respects_configured_limit(stack):
    side = make_side(stack, packet_payload=256, window_pkts=4)
    # receiver never drains: at most `window` packets reach the adapter
    data = b"w" * 4096  # 16 packets

    side.env.process(side.send(data))
    side.env.run(until=1e5)
    # distinct packets injected = the window size (RTO retransmissions of
    # the oldest unacked packet are counted separately)
    distinct = side.stats[0].packets_sent - side.stats[0].retransmissions
    assert distinct == 4
    assert side.endpoints[0].flows.inflight().unacked == {1: 4}


@stacks
def test_ack_every_packet_mode(stack):
    side = make_side(stack, packet_payload=256, ack_every=1)
    side.run_poller(1)
    data = b"a" * 1024  # 4 packets

    side.env.process(side.send(data))
    side.env.run(until=1e5)
    assert side.stats[1].acks_sent >= 4


def test_interleaved_frames_to_two_destinations():
    rig = Rig(n=3)
    rig.run_poller(1)
    rig.run_poller(2)

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e", "k": 1},
                                           b"x" * 900, fid=1)
        yield from rig.pipes[0].send_frame("user", 2, {"type": "e", "k": 2},
                                           b"y" * 900, fid=2)

    rig.env.process(sender())
    rig.env.run(until=1e5)
    assert frame_bytes(rig.delivered[1], 900) == b"x" * 900
    assert frame_bytes(rig.delivered[2], 900) == b"y" * 900
