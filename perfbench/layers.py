"""Per-layer host-time accounting for the traced benchmark pass.

:class:`LayerProfiler` wraps the public entry points of each ``repro``
layer (listed in :data:`ENTRY_POINTS`) for the duration of a ``with``
block.  Every wrapped call is a span; a call that returns a generator
is a span per *resumption* of that generator, since simulated
processes run their work one resumption at a time.  A span's self time
is its duration minus the durations of the spans it encloses, so the
self times of all layers add up to the time spent inside outermost
spans.  Nothing under ``src/`` is changed: the wrappers are installed
on the classes and removed again when the block exits.

The counts per layer come from each job's ``RunResult.metrics``
(:func:`layer_counts`), plus the call counts the wrappers see.
"""

from __future__ import annotations

import inspect
from time import perf_counter
from types import GeneratorType

import repro.cluster.cluster
import repro.machine.stats
import repro.nas
from repro.hal import Hal
from repro.lapi import Lapi
from repro.machine import Cpu, NodeStats
from repro.mpci import EarlyArrivalQueue, PostedReceiveQueue
from repro.mpi.api import Communicator
from repro.mpi.backends import LapiBackend, NativeBackend
from repro.mpi.backends.base import Backend
from repro.mpi.rma import LapiRmaEngine, NativeRmaEngine, Window
from repro.nas import KERNELS
from repro.network import Adapter, SwitchFabric
from repro.obs import Counter, Gauge, Histogram
from repro.pipes import PipeEndpoint
from repro.sim import Environment
from repro.transport import ReceiverLedger, SenderWindow

#: layer names, in report order; ``app`` is the benchmark's own rank
#: programs and output checks
LAYERS = ("sim", "cluster", "machine", "network", "hal", "transport",
          "pipes", "lapi", "mpci", "mpi", "mpi.rma", "obs", "nas", "app")


def _public(cls) -> tuple[str, ...]:
    return tuple(n for n, f in vars(cls).items()
                 if inspect.isfunction(f) and not n.startswith("_"))


#: (layer, class, method names) — the public entry points timed per layer
ENTRY_POINTS = (
    ("sim", Environment, ("run",)),
    ("cluster", repro.cluster.cluster.SPCluster,
     ("__init__", "run", "metrics_snapshot")),
    ("machine", Cpu, ("execute", "memcpy")),
    ("network", SwitchFabric, ("transmit",)),
    # packets reach the adapter through a kernel callback
    ("network", Adapter, ("enqueue_send", "poll", "_fabric_deliver")),
    ("hal", Hal, ("send", "poll", "charge_recv")),
    ("transport", SenderWindow, ("send", "on_ack")),
    ("transport", ReceiverLedger, ("accept",)),
    ("pipes", PipeEndpoint, ("send_frame", "dispatch")),
    ("lapi", Lapi, ("amsend", "put", "get", "rmw", "waitcntr", "dispatch")),
    ("mpci", PostedReceiveQueue, ("post", "match")),
    ("mpci", EarlyArrivalQueue, ("add", "match")),
    ("mpi", Communicator, _public(Communicator)),
    ("mpi", Backend, ("isend", "irecv", "progress", "wait", "test")),
    ("mpi", NativeBackend, ("isend", "irecv", "progress")),
    ("mpi", LapiBackend, ("isend", "irecv", "progress")),
    ("mpi.rma", Window, _public(Window)),
    ("mpi.rma", LapiRmaEngine, _public(LapiRmaEngine)),
    ("mpi.rma", NativeRmaEngine, _public(NativeRmaEngine)),
    ("obs", Counter, ("incr", "set")),
    ("obs", Gauge, ("set", "add")),
    ("obs", Histogram, ("observe",)),
    ("obs", NodeStats, ("trace", "record_copy")),
)


def _timed_names(cls, names) -> tuple[str, ...]:
    """``names`` plus every generator method of ``cls``.

    Layers run their own simulated processes (DMA and link engines,
    dispatcher and completion threads, the native RMA server); the
    kernel resumes those directly, so without their generator methods
    their work would be booked to ``sim``.
    """
    gens = [n for n, f in vars(cls).items()
            if inspect.isgeneratorfunction(f) and n not in names]
    return tuple(names) + tuple(gens)


_MATCHERS = (PostedReceiveQueue.match, EarlyArrivalQueue.match)


class LayerProfiler:
    """Self time and call counts per layer while installed.

    ``with LayerProfiler() as prof: ...`` wraps every entry point;
    :meth:`wrap` adds a span around any other callable (the benchmark
    uses it for its own rank programs, layer ``app``).
    """

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: successful matches, match calls and entries they inspected
        self.matches = self.match_calls = self.inspected = 0
        #: inclusive time of cluster builds and metrics snapshots
        self.build_s = self.snapshot_s = 0.0
        # child-time accumulator of each open span, innermost last
        self._open: list[float] = []
        self._saved: list = []

    # ------------------------------------------------------------ spans
    def _close(self, layer: str, t0: float) -> None:
        dt = perf_counter() - t0
        child = self._open.pop()
        self.self_s[layer] += dt - child
        if self._open:
            self._open[-1] += dt

    def _resumptions(self, gen, layer: str):
        """Drive ``gen``, timing each resumption as a span of ``layer``."""
        send, value, exc = gen.send, None, None
        while True:
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                self._close(layer, t0)
                return stop.value
            except BaseException:
                self._close(layer, t0)
                raise
            self._close(layer, t0)
            try:
                value, exc = (yield out), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as e:  # delivered into gen on resumption
                value, exc = None, e

    def wrap(self, fn, layer: str, on_result=None):
        """``fn`` with every call (and every resumption of a generator it
        returns) timed as a span of ``layer``."""
        calls = self.calls

        def timed(*args, **kwargs):
            calls[layer] += 1
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(layer, t0)
            if on_result is not None:
                on_result(out)
            if type(out) is GeneratorType:
                return self._resumptions(out, layer)
            return out

        return timed

    def _on_match(self, out) -> None:
        handle, inspected = out
        self.match_calls += 1
        self.inspected += inspected
        self.matches += handle is not None

    def _inclusive(self, fn, attr: str):
        """Also accumulate ``fn``'s inclusive time into ``self.<attr>``."""
        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self, attr, getattr(self, attr) + perf_counter() - t0)

        return timed

    # ----------------------------------------------------- installation
    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "LayerProfiler":
        for layer, cls, names in ENTRY_POINTS:
            for name in _timed_names(cls, names):
                fn = vars(cls)[name]
                hook = self._on_match if fn in _MATCHERS else None
                wrapped = self.wrap(fn, layer, hook)
                if cls is repro.cluster.cluster.SPCluster and name != "run":
                    attr = "build_s" if name == "__init__" else "snapshot_s"
                    wrapped = self._inclusive(wrapped, attr)
                self._patch(cls, name, wrapped)
        # NodeStats counters are properties over registry counters
        for name in repro.machine.stats.COUNTER_FIELDS:
            prop = vars(NodeStats)[name]
            self._patch(NodeStats, name, property(
                self.wrap(prop.fget, "obs"), self.wrap(prop.fset, "obs")))
        self._patch(repro.nas, "run_kernel",
                    self.wrap(repro.nas.run_kernel, "nas"))
        for name, fn in list(KERNELS.items()):
            self._saved.append((KERNELS, name, fn))
            KERNELS[name] = self.wrap(fn, "nas")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._saved):
            if owner is KERNELS:
                KERNELS[name] = value
            else:
                setattr(owner, name, value)
        self._saved.clear()


# ----------------------------------------------------------- counts
#: the per-layer counts reported as they are, with their units
COUNT_UNITS = {
    "sim.events": "count", "sim.process_switches": "count",
    "sim.heap_depth_max": "count",
    "machine.copies": "count", "machine.bytes_copied": "bytes",
    "machine.ctx_switches": "count",
    "network.packets": "count", "network.bytes_on_wire": "bytes",
    "network.interrupts": "count", "network.hysteresis_dwells": "count",
    "network.rx_fifo_max": "count",
    "transport.acks": "count", "transport.retransmissions": "count",
    "pipes.frames": "count", "pipes.bytes_staged": "bytes",
    "pipes.bytes_reordered": "bytes",
    "lapi.dispatch_pkts": "count", "lapi.hdr_handlers": "count",
    "lapi.cmpl_inline": "count", "lapi.cmpl_threaded": "count",
    "mpci.early_arrivals": "count", "mpci.unexpected_max": "count",
    "mpi.rendezvous": "count",
}

#: counts that combine across jobs by maximum rather than by sum
MAX_COUNTS = ("sim.heap_depth_max", "network.rx_fifo_max", "mpci.unexpected_max")


def layer_counts(metrics: dict) -> dict[str, float]:
    """The per-layer counts one job's ``RunResult.metrics`` carries: the
    :data:`COUNT_UNITS` ones plus ``mpi.msgs`` and ``mpi.polls``."""
    c = metrics["cluster"]["counters"]
    a = metrics["aggregate"]["counters"]
    g = metrics["aggregate"]["gauges"]

    def hw(name: str) -> float:
        return g[name]["high_water"] if name in g else 0

    return {
        "sim.events": c["sim.events_popped"],
        "sim.process_switches": c["sim.process_switches"],
        "sim.heap_depth_max": metrics["cluster"]["gauges"]["sim.heap_depth"]["high_water"],
        "machine.copies": a["copies"],
        "machine.bytes_copied": a["bytes_copied"],
        "machine.ctx_switches": a["ctx_switches"],
        "network.packets": a["packets_sent"],
        "network.bytes_on_wire": a["bytes_on_wire"],
        "network.interrupts": a["interrupts"],
        "network.hysteresis_dwells": a["hysteresis_dwells"],
        "network.rx_fifo_max": hw("adapter.rx_fifo_depth"),
        "transport.acks": a["acks_sent"],
        "transport.retransmissions": a["retransmissions"],
        "pipes.frames": a.get("pipes.frames_sent", 0),
        "pipes.bytes_staged": a.get("pipes.bytes_staged", 0),
        "pipes.bytes_reordered": a.get("pipes.bytes_reordered", 0),
        "lapi.dispatch_pkts": a.get("lapi.dispatch_pkts", 0),
        "lapi.hdr_handlers": a["hdr_handlers_run"],
        "lapi.cmpl_inline": a["cmpl_handlers_inline"],
        "lapi.cmpl_threaded": a["cmpl_handlers_threaded"],
        "mpci.early_arrivals": a["early_arrivals"],
        "mpci.unexpected_max": hw("mpi.unexpected_depth"),
        "mpi.rendezvous": a["rendezvous_started"],
        "mpi.msgs": a["msgs_sent"],
        "mpi.polls": a["polls"],
    }


def add_counts(total: dict, counts: dict) -> None:
    for k, v in counts.items():
        if k in MAX_COUNTS:
            total[k] = max(total.get(k, 0), v)
        else:
            total[k] = total.get(k, 0) + v
