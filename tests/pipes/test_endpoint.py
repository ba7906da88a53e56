"""Integration-style tests for the Pipes reliable ordered stream."""

import numpy as np
import pytest

from repro.hal import Hal
from repro.machine import Cpu, MachineParams, NodeStats
from repro.network import Adapter, SwitchFabric
from repro.pipes import PipeEndpoint
from repro.sim import Environment


class Rig:
    """Two (or more) nodes with pipe endpoints and frame collectors."""

    def __init__(self, n=2, seed=3, **overrides):
        self.env = Environment()
        self.params = MachineParams(**overrides)
        self.fabric = SwitchFabric(self.env, self.params, rng=np.random.default_rng(seed))
        self.stats = [NodeStats() for _ in range(n)]
        self.cpus = [Cpu(self.env, self.params, self.stats[i]) for i in range(n)]
        self.adapters = [
            Adapter(self.env, self.params, self.fabric, i, self.stats[i]) for i in range(n)
        ]
        self.hals = [
            Hal(self.env, self.cpus[i], self.adapters[i], self.params, self.stats[i],
                self.params.native_header_bytes)
            for i in range(n)
        ]
        self.pipes = [
            PipeEndpoint(self.env, self.cpus[i], self.hals[i], self.params, self.stats[i])
            for i in range(n)
        ]
        # packet log per node: (src, header, payload) in delivery order
        self.delivered = [[] for _ in range(n)]
        for i in range(n):
            self.pipes[i].on_packet = self._collector(i)
        self.pollers = [None] * n

    def _collector(self, i):
        def on_packet(thread, src, header, payload):
            self.delivered[i].append((src, header, payload))
            yield self.env.timeout(0)

        return on_packet

    def run_poller(self, i):
        """Continuously dispatch arrivals on node i."""

        def poller():
            ep = self.pipes[i]
            while True:
                yield from ep.dispatch("user")
                yield ep.hal.wait_rx()

        self.pollers[i] = self.env.process(poller(), name=f"poll{i}")


def frame_bytes(node_log, flen):
    """Reassemble a single frame of known length from a delivery log."""
    buf = bytearray(flen)
    for _src, hdr, payload in node_log:
        buf[hdr["foff"] : hdr["foff"] + len(payload)] = payload
    return bytes(buf)


def test_single_packet_frame_delivery():
    rig = Rig()
    rig.run_poller(1)

    def sender():
        yield from rig.pipes[0].send_frame(
            "user", 1, {"type": "eager", "tag": 7}, b"hello pipes"
        )

    rig.env.process(sender())
    rig.env.run(until=1e6)
    assert len(rig.delivered[1]) == 1
    src, hdr, payload = rig.delivered[1][0]
    assert src == 0
    assert payload == b"hello pipes"
    assert hdr["meta"] == {"type": "eager", "tag": 7}
    assert hdr["flen"] == 11


def test_multi_packet_frame_in_order_and_meta_on_first_only():
    rig = Rig(packet_payload=256)
    rig.run_poller(1)
    data = bytes(range(256)) * 5  # 1280 bytes -> 5 packets

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "eager"}, data)

    rig.env.process(sender())
    rig.env.run(until=1e6)
    log = rig.delivered[1]
    assert len(log) == 5
    offs = [h["foff"] for _, h, _ in log]
    assert offs == sorted(offs), "pipes must deliver in order"
    assert "meta" in log[0][1]
    assert all("meta" not in h for _, h, _ in log[1:])
    assert frame_bytes(log, len(data)) == data


def test_in_order_delivery_despite_fabric_reordering():
    rig = Rig(packet_payload=128, route_skew_us=300.0, route_jitter_us=50.0)
    rig.run_poller(1)
    data = np.arange(300, dtype=np.uint8).tobytes() * 4  # 1200B -> 10 pkts

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "eager"}, data)

    rig.env.process(sender())
    rig.env.run(until=1e6)
    log = rig.delivered[1]
    seqs = [h["seq"] for _, h, _ in log]
    assert seqs == sorted(seqs)
    assert frame_bytes(log, len(data)) == data


def test_loss_recovery_via_retransmission():
    rig = Rig(packet_payload=256, packet_loss_rate=0.15, seed=11)
    rig.run_poller(1)
    data = bytes(np.random.default_rng(0).integers(0, 256, 4096, dtype=np.uint8))

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "eager"}, data)

    rig.env.process(sender())
    rig.env.run(until=5e6)
    log = rig.delivered[1]
    assert frame_bytes(log, len(data)) == data
    assert rig.stats[0].retransmissions > 0


def test_window_backpressure_blocks_sender():
    # tiny window, receiver never dispatches -> sender must stall
    rig = Rig(packet_payload=128, pipe_window_pkts=2)
    done = []

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "eager"}, b"x" * 1024)
        done.append(rig.env.now)

    rig.env.process(sender())
    rig.env.run(until=1e6)
    assert not done, "sender should stall with a full window and no acks"


def test_window_opens_when_receiver_dispatches():
    rig = Rig(packet_payload=128, pipe_window_pkts=2, pipe_ack_every=1)
    rig.run_poller(1)
    done = []

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "eager"}, b"x" * 1024)
        done.append(rig.env.now)

    rig.env.process(sender())
    rig.env.run(until=1e6)
    assert done
    assert frame_bytes(rig.delivered[1], 1024) == b"x" * 1024


def test_buffered_ranges_charge_copies():
    rig = Rig(packet_payload=1024)
    rig.run_poller(1)
    data = b"z" * 4096

    def sender():
        yield from rig.pipes[0].send_frame(
            "user", 1, {"type": "eager"}, data,
            buffered_prefix=1024, buffered_suffix=1024,
        )

    rig.env.process(sender())
    rig.env.run(until=1e6)
    # sender copies only the buffered prefix+suffix (2 packets of 4)
    assert rig.stats[0].bytes_copied == 2048
    # receiver mirrors the buffered flag
    assert rig.stats[1].bytes_copied == 2048


def test_unbuffered_frame_charges_no_copies():
    rig = Rig(packet_payload=1024)
    rig.run_poller(1)

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "t"}, b"q" * 2048)

    rig.env.process(sender())
    rig.env.run(until=1e6)
    assert rig.stats[0].bytes_copied == 0
    assert rig.stats[1].bytes_copied == 0


def test_zero_byte_frame():
    rig = Rig()
    rig.run_poller(1)

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "rts", "size": 10**6}, b"")

    rig.env.process(sender())
    rig.env.run(until=1e6)
    assert len(rig.delivered[1]) == 1
    _, hdr, payload = rig.delivered[1][0]
    assert payload == b""
    assert hdr["meta"]["type"] == "rts"


def test_bidirectional_streams_are_independent():
    rig = Rig()
    rig.run_poller(0)
    rig.run_poller(1)

    def sender(i, j, tag):
        yield from rig.pipes[i].send_frame("user", j, {"type": "eager", "tag": tag},
                                           bytes([i]) * 100)

    rig.env.process(sender(0, 1, 1))
    rig.env.process(sender(1, 0, 2))
    rig.env.run(until=1e6)
    assert rig.delivered[1][0][2] == bytes([0]) * 100
    assert rig.delivered[0][0][2] == bytes([1]) * 100


def test_send_to_self_rejected():
    rig = Rig()
    with pytest.raises(ValueError):
        next(rig.pipes[0].send_frame("user", 0, {}, b"x"))


def test_many_frames_interleaved_order_per_flow():
    rig = Rig(packet_payload=512)
    rig.run_poller(1)

    def sender():
        for k in range(10):
            yield from rig.pipes[0].send_frame(
                "user", 1, {"type": "eager", "k": k}, bytes([k]) * 700
            )

    rig.env.process(sender())
    rig.env.run(until=1e7)
    metas = [h["meta"]["k"] for _, h, _ in rig.delivered[1] if "meta" in h]
    assert metas == list(range(10)), "frame starts must arrive in send order"


def test_acks_are_eventually_sent_and_window_drains():
    rig = Rig(packet_payload=512, pipe_ack_every=4)
    rig.run_poller(1)

    def sender():
        yield from rig.pipes[0].send_frame("user", 1, {"type": "e"}, b"m" * 3000)

    rig.env.process(sender())
    rig.env.run(until=1e6)
    assert rig.pipes[0].flows.inflight().unacked == {}, \
        "delayed ack should have drained the window"
    assert rig.stats[1].acks_sent >= 1
