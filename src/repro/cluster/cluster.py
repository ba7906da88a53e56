"""SPCluster: an N-node RS/6000 SP with one of the four protocol stacks.

Stacks:

- ``"native"``         MPI → MPCI → Pipes → HAL (paper Fig 1a)
- ``"lapi-base"``      MPI → thin MPCI → LAPI, threaded completion handlers
- ``"lapi-counters"``  as above, eager completions via target counters
- ``"lapi-enhanced"``  LAPI extended with in-context completion handlers
- ``"raw-lapi"``       no MPI layer: programs receive the Lapi object
                       (used for the paper's RAW LAPI baseline in Fig 10)

Usage::

    cluster = SPCluster(4, stack="lapi-enhanced")

    def program(comm, rank, size):
        yield from comm.send(b"hello", dest=(rank + 1) % size)
        ...

    result = cluster.run(program)
    print(result.elapsed_us, result.stats.copies)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.hal import Hal
from repro.lapi import Lapi
from repro.machine import Cpu, MachineParams, NodeStats
from repro.machine.stats import COUNTER_FIELDS
from repro.mpi.api import Communicator
from repro.mpi.backends import LapiBackend, NativeBackend
from repro.network import Adapter, SwitchFabric
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.pipes import PipeEndpoint
from repro.rngs import RngStreams
from repro.sim import Environment, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.faults.points import FaultInjector

__all__ = ["DeadlockError", "RankResult", "RunResult", "SPCluster", "STACKS"]


class DeadlockError(SimulationError):
    """The event queue drained with ranks still blocked — a
    communication deadlock.  The message names the stuck ranks and, per
    stuck rank, its matching state; ``blocked`` maps each stuck rank to
    its :class:`repro.mpci.MatcherView` (None on ``raw-lapi``)."""

    def __init__(self, message: str, blocked: Optional[dict] = None):
        super().__init__(message)
        self.blocked = blocked or {}

STACKS = ("native", "lapi-base", "lapi-counters", "lapi-enhanced", "raw-lapi")

#: every cluster shares one default parameter set (the dataclass is frozen)
_DEFAULT_PARAMS = MachineParams()

_PIPES_COUNTERS = ("pipes.frames_sent", "pipes.bytes_staged", "pipes.bytes_reordered")
_LAPI_COUNTERS = ("lapi.amsend", "lapi.put", "lapi.get", "lapi.rmw",
                  "lapi.dispatch_pkts")
_MPI_GAUGES = ("mpi.ea_bytes", "mpi.unexpected_depth")

#: (counters, gauges) of the cluster registry: the fault injector's, the
#: fabric's and the kernel's, all taken at build
CLUSTER_METRICS = (
    ("fault.injected_drops", "fault.duplicates", "fault.extra_delays",
     "fault.fifo_squeezes", "fault.dispatcher_stalls",
     "fault.interrupt_storm_ticks", "fault.cpu_slowdown_ticks",
     "net.dropped", "sim.events_popped", "sim.process_switches",
     "sim.processes_started"),
    ("sim.heap_depth",),
)

#: stack -> (counters, gauges) that the node's layers take at build, made
#: in one pass per node.  Names made on first use (``lapi.hdr.*``,
#: ``mpi.proto.*``, ``rma.*``, ...) stay lazy, so a snapshot's key set is
#: what the layers would have registered by name.
NODE_METRICS = {
    "native": (COUNTER_FIELDS + _PIPES_COUNTERS,
               ("adapter.rx_fifo_depth", "pipes.pkts_in_flight") + _MPI_GAUGES),
    **{stack: (COUNTER_FIELDS + _LAPI_COUNTERS,
               ("adapter.rx_fifo_depth", "lapi.pkts_in_flight") + _MPI_GAUGES)
       for stack in ("lapi-base", "lapi-counters", "lapi-enhanced")},
    "raw-lapi": (COUNTER_FIELDS + _LAPI_COUNTERS,
                 ("adapter.rx_fifo_depth", "lapi.pkts_in_flight")),
}


@dataclass
class RankResult:
    rank: int
    value: Any
    finished_at: float


@dataclass
class RunResult:
    """Outcome of one program run across all ranks."""

    ranks: list[RankResult]
    elapsed_us: float
    #: full metrics snapshot (cluster + aggregate + per-node), JSON-able
    metrics: dict

    @property
    def values(self) -> list[Any]:
        return [r.value for r in self.ranks]

    @cached_property
    def stats(self) -> NodeStats:
        """The :class:`NodeStats` counters summed over nodes, built on
        first read from the snapshot's ``aggregate`` section."""
        counters = self.metrics["aggregate"]["counters"]
        return NodeStats(**{name: counters[name] for name in COUNTER_FIELDS})


class SPCluster:
    """One simulated SP system."""

    def __init__(
        self,
        num_nodes: int,
        stack: str = "lapi-enhanced",
        params: Optional[MachineParams] = None,
        seed: int = 0,
        interrupt_mode: bool = False,
        trace: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if stack not in STACKS:
            raise ValueError(f"unknown stack {stack!r}; choose from {STACKS}")
        self.num_nodes = num_nodes
        self.stack = stack
        self.params = params if params is not None else _DEFAULT_PARAMS
        self.params.validate()
        self.interrupt_mode = interrupt_mode
        self.seed = seed
        #: named RNG substreams — the fabric and the fault injector draw
        #: from independent streams, so enabling faults never perturbs a
        #: fault-free trajectory with the same seed
        self.streams = RngStreams(seed)

        #: cluster-wide registry (sim kernel + fabric + faults); per-node
        #: metrics live in each node's ``NodeStats.registry``
        self.metrics = MetricsRegistry(*CLUSTER_METRICS)
        self.env = Environment(metrics=self.metrics)
        self.tracer = None
        if trace:
            from repro.trace import Tracer

            self.tracer = Tracer(self.env)

        self.fault_plan = fault_plan
        #: a fault-free cluster asks for no fault points, so it neither
        #: builds an injector nor imports :mod:`repro.faults`
        fi = (self.fault_injector
              if fault_plan is not None or self.params.packet_loss_rate > 0.0
              else None)

        fabric_faults = fi.point("fabric") if fi is not None else None
        if self.params.fabric_model == "staged":
            from repro.network.staged import StagedFabric

            self.fabric = StagedFabric(
                self.env, self.params, rng=self.streams.fabric,
                metrics=self.metrics, faults=fabric_faults,
            )
        else:
            self.fabric = SwitchFabric(
                self.env, self.params, rng=self.streams.fabric,
                metrics=self.metrics, faults=fabric_faults,
            )
        counters, gauges = NODE_METRICS[stack]
        self.node_stats = [NodeStats(MetricsRegistry(counters, gauges))
                           for _ in range(num_nodes)]
        for i, s in enumerate(self.node_stats):
            s.node_id = i
            if self.tracer is not None:
                s.tracer = self.tracer
        self.cpus = [
            Cpu(self.env, self.params, self.node_stats[i], name=f"cpu{i}",
                cores=self.params.cpus_per_node)
            for i in range(num_nodes)
        ]
        self.adapters = [
            Adapter(self.env, self.params, self.fabric, i, self.node_stats[i])
            for i in range(num_nodes)
        ]
        if fi is not None:
            for i in range(num_nodes):
                self.cpus[i].faults = fi.point("cpu", node=i)
                self.adapters[i].faults = fi.point("adapter", node=i)
            fi.start_storms(self.env, self.cpus)

        header = (
            self.params.native_header_bytes
            if stack == "native"
            else self.params.lapi_header_bytes
        )
        self.hals = [
            Hal(self.env, self.cpus[i], self.adapters[i], self.params,
                self.node_stats[i], header)
            for i in range(num_nodes)
        ]

        self.lapis: list[Optional[Lapi]] = [None] * num_nodes
        self.pipes: list[Optional[PipeEndpoint]] = [None] * num_nodes
        self.backends = []

        if stack == "native":
            for i in range(num_nodes):
                pipe = PipeEndpoint(self.env, self.cpus[i], self.hals[i],
                                    self.params, self.node_stats[i])
                self.pipes[i] = pipe
                self.backends.append(
                    NativeBackend(self.env, self.cpus[i], self.params,
                                  self.node_stats[i], i, num_nodes, pipe)
                )
        elif stack == "raw-lapi":
            for i in range(num_nodes):
                self.lapis[i] = Lapi(
                    self.env, self.cpus[i], self.hals[i], self.params,
                    self.node_stats[i], task_id=i, num_tasks=num_nodes,
                    enhanced=True,
                )
        else:
            variant = stack.removeprefix("lapi-")
            for i in range(num_nodes):
                lapi = Lapi(
                    self.env, self.cpus[i], self.hals[i], self.params,
                    self.node_stats[i], task_id=i, num_tasks=num_nodes,
                    enhanced=(variant == "enhanced"),
                )
                self.lapis[i] = lapi
                self.backends.append(
                    LapiBackend(self.env, self.cpus[i], self.params,
                                self.node_stats[i], i, num_nodes, lapi, variant)
                )
            peers = {b.task_id: b for b in self.backends}
            for b in self.backends:
                b.wire(peers)

        if fi is not None:
            for i in range(num_nodes):
                point = fi.point("dispatcher", node=i)
                if self.lapis[i] is not None:
                    self.lapis[i].flows.faults = point
                if self.pipes[i] is not None:
                    self.pipes[i].flows.faults = point

        if interrupt_mode:
            if stack == "raw-lapi":
                for lapi in self.lapis:
                    lapi.senv("INTERRUPT_SET", True)
            else:
                for b in self.backends:
                    b.set_interrupt_mode(True)

        self.comms: list[Optional[Communicator]] = [None] * num_nodes
        if self.backends:
            world = list(range(num_nodes))
            self.comms = [
                Communicator(self.backends[i], world, i) for i in range(num_nodes)
            ]

    @cached_property
    def fault_injector(self) -> "FaultInjector":
        """The cluster's fault injector, over the ``faults`` RNG stream.
        A fault-free cluster builds it only when this is first read; its
        ``fault.*`` counters are in :data:`CLUSTER_METRICS` either way."""
        from repro.faults.points import FaultInjector

        return FaultInjector(
            plan=self.fault_plan,
            rng=self.streams.seed_sequence("faults"),
            metrics=self.metrics,
            tracer=self.tracer,
            base_loss_rate=self.params.packet_loss_rate,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config) -> "SPCluster":
        """Build from a :class:`repro.cluster.ClusterConfig`."""
        return config.build()

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """Deterministic, JSON-able view of every registry in the cluster.

        ``cluster`` holds sim-kernel and fabric metrics, ``nodes`` the
        per-node registries in rank order, ``aggregate`` their merge.
        When tracing is on, ``trace`` summarises the capture: record and
        drop counts (per layer), the number of distinct message ids
        seen, and whether the capture is complete (nothing dropped).
        """
        nodes = [s.registry.snapshot() for s in self.node_stats]
        snap = {
            "cluster": self.metrics.snapshot(),
            "aggregate": merge_snapshots(nodes),
            "nodes": nodes,
        }
        if self.tracer is not None:
            mids = {r.fields["mid"] for r in self.tracer.records
                    if "mid" in r.fields}
            snap["trace"] = {
                "records": len(self.tracer.records),
                "dropped": self.tracer.dropped,
                "dropped_by_layer": dict(sorted(
                    self.tracer.dropped_by_layer.items())),
                "messages": len(mids),
                "complete": self.tracer.dropped == 0,
            }
        return snap

    def run(self, program: Callable, *args, **kwargs) -> RunResult:
        """Run ``program(comm, rank, size, *args, **kwargs)`` on all ranks.

        For the ``raw-lapi`` stack the program signature is
        ``program(lapi, rank, size, *args, **kwargs)``.  A communication
        deadlock surfaces as :class:`repro.sim.SimulationError` (the
        event queue drains with ranks still blocked).
        """
        start = self.env.now
        results: list[Optional[RankResult]] = [None] * self.num_nodes
        procs = []
        for rank in range(self.num_nodes):
            handle = self.comms[rank] if self.stack != "raw-lapi" else self.lapis[rank]
            procs.append(
                self.env.process(
                    self._wrap(program, handle, rank, results, args, kwargs),
                    name=f"rank{rank}",
                )
            )
        try:
            self.env.run(until=self.env.all_of(procs))
        except SimulationError as exc:
            if "deadlock" not in str(exc):
                raise
            stuck = [r for r in range(self.num_nodes) if results[r] is None]
            blocked = {r: self.backends[r].matcher.view() if self.backends
                       else None for r in stuck}
            lines = "".join(f"\n  rank {r}: {v.describe()}"
                            for r, v in blocked.items() if v is not None)
            raise DeadlockError(
                f"communication deadlock at t={self.env.now:.1f}us: "
                f"rank(s) {stuck} never completed (every rank is blocked "
                f"waiting for a message or event that can no longer arrive)"
                f"{lines}", blocked,
            ) from exc
        return RunResult(
            ranks=[r for r in results],
            elapsed_us=self.env.now - start,
            metrics=self.metrics_snapshot(),
        )

    def _wrap(self, program, handle, rank, results, args, kwargs):
        value = yield from program(handle, rank, self.num_nodes, *args, **kwargs)
        results[rank] = RankResult(rank=rank, value=value, finished_at=self.env.now)
