"""Simulator-kernel micro-benchmark: events/sec, packets/sec, ns/event.

Times the discrete-event kernel itself, not the modelled machine: five
workloads stress the paths the hot-path optimisation touched —

- ``timeout_wheel``  — nonzero delays, pure heap scheduling;
- ``event_chain``    — delay-0 timeouts, the deque fast path;
- ``store_churn``    — producer/consumer resource ops (pooled events);
- ``pingpong``       — the full LAPI/MPI stack, for packets/sec;
- ``stream``         — back-to-back rendezvous messages, where the
  adapter's per-packet stages dominate the event count.

Every workload is deterministic: the *event count* and final *simulated
time* must reproduce exactly between runs, rounds, and kernel versions
(they are the regression-gated fields of ``BENCH_simcore.json``); only
the wall-clock fields (``wall_ms``, ``events_per_sec``, ``ns_per_event``,
``packets_per_sec``) vary with the machine, and the CI gate compares
those with effectively infinite tolerance.

CLI::

    python benchmarks/bench_simcore.py --out DIR [--rounds N]
"""

from __future__ import annotations

import time

from repro.sim import Environment, Store

#: per-round wall-clock measurements keep the best of this many runs
DEFAULT_ROUNDS = 5


# ------------------------------------------------------------- workloads
def wl_timeout_wheel(procs: int = 200, touts: int = 200):
    """Heap-heavy: every timeout has a nonzero, scattered delay."""
    env = Environment()

    def runner(i):
        for k in range(touts):
            yield env.timeout(1.0 + (i * 7 + k) % 13)

    for i in range(procs):
        env.process(runner(i))
    env.run()
    return env._seq, env.now, 0


def wl_event_chain(procs: int = 50, steps: int = 4000):
    """Delay-0 timeouts back to back: the same-instant deque fast path."""
    env = Environment()

    def runner():
        t = env.timeout
        for _ in range(steps):
            yield t(0)

    for _ in range(procs):
        env.process(runner())
    env.run()
    return env._seq, env.now, 0


def wl_store_churn(pairs: int = 100, rounds: int = 200):
    """Producer/consumer pairs over Stores: pooled operation events."""
    env = Environment()

    def producer(s):
        for k in range(rounds):
            s.put(k)
            yield env.timeout(0)

    def consumer(s):
        for _ in range(rounds):
            yield s.get()

    for _ in range(pairs):
        s = Store(env)
        env.process(producer(s))
        env.process(consumer(s))
    env.run()
    return env._seq, env.now, 0


def wl_pingpong(reps: int = 30, msg_size: int = 4096,
                stack: str = "lapi-enhanced"):
    """The full simulated stack end to end; counts fabric packets."""
    from repro.cluster import SPCluster

    cluster = SPCluster(2, stack=stack, seed=0)
    payload = bytes(msg_size)

    def program(comm, rank, size):
        buf = bytearray(msg_size)
        yield from comm.barrier()
        for _ in range(reps):
            if rank == 0:
                yield from comm.send(payload, dest=1)
                yield from comm.recv(buf, source=1)
            else:
                yield from comm.recv(buf, source=0)
                yield from comm.send(payload, dest=0)

    cluster.run(program)
    env = cluster.env
    return env._seq, env.now, cluster.fabric.delivered


def wl_stream(msgs: int = 4, msg_size: int = 64 * 1024,
              stack: str = "lapi-enhanced"):
    """Rank 0 streams rendezvous messages to rank 1; counts packets."""
    from repro.cluster import SPCluster

    cluster = SPCluster(2, stack=stack, seed=0)
    payload = bytes(msg_size)

    def program(comm, rank, size):
        buf = bytearray(msg_size)
        for _ in range(msgs):
            if rank == 0:
                yield from comm.send(payload, dest=1)
            else:
                yield from comm.recv(buf, source=0)

    cluster.run(program)
    env = cluster.env
    return env._seq, env.now, cluster.fabric.delivered


WORKLOADS = (
    ("timeout_wheel", wl_timeout_wheel),
    ("event_chain", wl_event_chain),
    ("store_churn", wl_store_churn),
    ("pingpong", wl_pingpong),
    ("stream", wl_stream),
)


# ------------------------------------------------------------- measuring
def measure(fn, rounds: int = DEFAULT_ROUNDS) -> tuple[int, float, int, float]:
    """(events, sim_time_us, packets, best_wall_s) over ``rounds`` runs.

    The deterministic counters must agree across rounds; a mismatch
    means the kernel lost determinism and is raised immediately.
    """
    counts = None
    best = float("inf")
    for _ in range(max(1, rounds)):
        t0 = time.perf_counter()
        got = fn()
        wall = time.perf_counter() - t0
        if counts is None:
            counts = got
        elif got != counts:
            raise AssertionError(f"{fn.__name__}: nondeterministic counters "
                                 f"{got} != {counts}")
        best = min(best, wall)
    events, sim_us, packets = counts
    return events, sim_us, packets, best


def rows(rounds: int = DEFAULT_ROUNDS) -> list[dict]:
    out = []
    total_events = 0
    total_packets = 0
    total_wall = 0.0
    for name, fn in WORKLOADS:
        events, sim_us, packets, wall = measure(fn, rounds)
        total_events += events
        total_packets += packets
        total_wall += wall
        out.append(_row(name, events, sim_us, packets, wall))
    # the headline aggregate: all workloads' events over their summed
    # best wall times (the number the before/after speedup quotes)
    out.append(_row("TOTAL", total_events, 0.0, total_packets, total_wall))
    return out


def _row(name: str, events: int, sim_us: float, packets: int,
         wall_s: float) -> dict:
    return {
        "workload": name,
        "events": events,
        "sim_time_us": sim_us,
        "packets": packets,
        "wall_ms": wall_s * 1e3,
        "events_per_sec": events / wall_s,
        "ns_per_event": wall_s * 1e9 / events,
        "packets_per_sec": packets / wall_s if packets else 0.0,
    }


# --------------------------------------------------------------- pytest
def test_simcore_counts_deterministic():
    """Each workload's event/packet counters reproduce exactly."""
    for name, fn in WORKLOADS:
        assert fn() == fn(), f"{name}: counters not deterministic"


# ------------------------------------------------------------------ CLI
def main(argv=None) -> int:
    """Write the schema-versioned BENCH_simcore.json artifact."""
    import argparse

    from repro.bench.artifact import make_artifact, write_artifact

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="wall-clock rounds per workload (best kept)")
    args = parser.parse_args(argv)

    data = rows(rounds=args.rounds)
    doc = make_artifact(
        "simcore",
        params={"rounds": args.rounds,
                "workloads": [name for name, _ in WORKLOADS]},
        results=data,
    )
    path = write_artifact(doc, args.out)
    print(f"wrote {path}")
    for r in data:
        print(f"  {r['workload']:14s} {r['events']:>9d} events "
              f"{r['wall_ms']:8.1f} ms  {r['events_per_sec'] / 1e6:6.2f} M ev/s "
              f"{r['ns_per_event']:7.1f} ns/ev")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
