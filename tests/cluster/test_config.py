"""ClusterConfig presets and the named RNG substreams."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, PRESETS, SPCluster, preset
from repro.rngs import RngStreams, STREAMS


# ----------------------------------------------------------- ClusterConfig
def test_preset_names():
    assert set(PRESETS) == {"paper_4node", "interrupt_mode", "lossy"}


def test_paper_4node_builds_four_nodes():
    cluster = preset("paper_4node").build()
    assert cluster.num_nodes == 4
    assert cluster.stack == "lapi-enhanced"


def test_interrupt_mode_preset():
    cluster = preset("interrupt_mode").build()
    assert cluster.interrupt_mode
    assert cluster.num_nodes == 2


def test_lossy_preset_sets_loss_floor():
    cfg = preset("lossy")
    assert cfg.params.packet_loss_rate == pytest.approx(0.05)
    cfg2 = preset("lossy", rate=0.2)
    assert cfg2.params.packet_loss_rate == pytest.approx(0.2)


def test_preset_overrides_and_replace():
    cfg = preset("paper_4node", stack="native", seed=3)
    assert (cfg.num_nodes, cfg.stack, cfg.seed) == (4, "native", 3)
    cfg2 = cfg.replace(trace=True)
    assert cfg2.trace and not cfg.trace


def test_with_params_layers_machine_overrides():
    cfg = ClusterConfig().with_params(adapter_recv_fifo=8)
    assert cfg.params.adapter_recv_fifo == 8


def test_from_config_equivalent_to_build():
    cfg = preset("interrupt_mode", seed=11)
    a = SPCluster.from_config(cfg)
    b = cfg.build()
    assert a.num_nodes == b.num_nodes
    assert a.interrupt_mode == b.interrupt_mode
    assert a.seed == b.seed


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("nope")


def test_config_runs_a_program():
    cluster = preset("paper_4node", num_nodes=2).build()

    def program(comm, rank, size):
        if rank == 0:
            yield from comm.send(b"hi", dest=1)
        else:
            buf = bytearray(2)
            yield from comm.recv(buf, source=0)
            return bytes(buf)

    result = cluster.run(program)
    assert result.values[1] == b"hi"


# ------------------------------------------------------------- RngStreams
def test_streams_are_deterministic_per_seed():
    a, b = RngStreams(42), RngStreams(42)
    for name in STREAMS[:2]:
        assert a.get(name).random() == b.get(name).random()
    assert a.node(3).random() == b.node(3).random()


def test_streams_are_mutually_independent():
    s = RngStreams(0)
    draws = {s.fabric.random(), s.faults.random(), s.node(0).random(),
             s.node(1).random()}
    assert len(draws) == 4  # astronomically unlikely to collide


def test_node_streams_independent_of_request_order():
    a, b = RngStreams(7), RngStreams(7)
    a.node(0), a.node(1)  # warm in opposite orders
    b.node(1), b.node(0)
    assert a.node(1).random() == b.node(1).random()


def test_unknown_stream_rejected():
    with pytest.raises(KeyError):
        RngStreams(0).get("bogus")


def test_cluster_fabric_uses_fabric_stream():
    cluster = SPCluster(2, seed=5)
    expected = RngStreams(5).fabric
    assert cluster.fabric.rng.random() == expected.random()


def test_fault_draws_do_not_perturb_fabric_stream():
    """The point of the substreams: enabling fault injection must not
    shift the fabric's jitter trajectory for the same seed."""
    from repro.bench.harness import pingpong_us
    from repro.faults import FaultPlan, LossBurst

    base = pingpong_us("lapi-enhanced", 256, reps=4, seed=3)
    # a plan whose only event opens long after the run finished: the
    # fault machinery is armed (point installed) but never draws
    late = FaultPlan("late", (LossBurst(at_us=1e9, duration_us=1.0),))
    cluster = SPCluster(2, stack="lapi-enhanced", seed=3, fault_plan=late)

    def program(comm, rank, size):
        buf = bytearray(256)
        payload = bytes(256)
        yield from comm.barrier()
        t0 = None
        for i in range(6):
            if i == 2:
                t0 = comm.env.now
            if rank == 0:
                yield from comm.send(payload, dest=1)
                yield from comm.recv(buf, source=1)
            else:
                yield from comm.recv(buf, source=0)
                yield from comm.send(payload, dest=0)
        return (comm.env.now - t0) / 4 / 2.0 if rank == 0 else None

    assert cluster.run(program).values[0] == pytest.approx(base, abs=1e-12)


def test_numpy_generator_types():
    s = RngStreams(1)
    assert isinstance(s.fabric, np.random.Generator)
    assert isinstance(s.node(0), np.random.Generator)


@pytest.mark.parametrize("seed", [0, 1, 7, 4242, 2**40])
def test_streams_equal_the_spawned_children(seed):
    """Each stream is built alone, yet draws as the root's ``spawn``
    child at its position would, and node streams hang off ``nodes``."""
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(STREAMS))
    s = RngStreams(seed)
    for name, child in zip(STREAMS, children):
        assert s.get(name).random(4).tolist() == \
            np.random.default_rng(child).random(4).tolist()
    for node in (0, 3):
        ref = np.random.SeedSequence(root.entropy,
                                     spawn_key=(STREAMS.index("nodes"), node))
        assert s.node(node).random(3).tolist() == \
            np.random.default_rng(ref).random(3).tolist()
    with pytest.raises(KeyError):
        s.seed_sequence("node0")


def test_fault_injector_builds_its_generator_on_the_first_draw():
    cluster = SPCluster(2, seed=9)
    assert cluster.fabric.faults is None  # no loss: no static loss point
    cluster.run(lambda comm, rank, size: comm.barrier())
    assert cluster.fault_injector._rng is None  # a fault-free run never drew
    assert cluster.fault_injector.rng.random() == RngStreams(9).faults.random()
