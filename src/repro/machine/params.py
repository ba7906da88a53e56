"""Cost-model parameters for the simulated RS/6000 SP.

All times are microseconds, all sizes bytes, all rates MB/s.  Defaults
are calibrated so the reproduced curves have the *shape* reported by the
paper on 332 MHz PowerPC nodes with the TBMX adapter (see EXPERIMENTS.md
for the calibration rationale); several figures from the provided paper
text are OCR-garbled, so absolute values are period-plausible choices,
not measurements.

The single most important parameter for the paper's story is
:attr:`MachineParams.ctx_switch_us`: the cost of dispatching a LAPI
completion handler on its separate thread.  Section 5 of the paper
attributes essentially the whole Base-vs-Enhanced gap to it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass


def _us_per_byte(mb_per_s: float) -> float:
    """Convert a MB/s rate to microseconds per byte (1 MB/s == 1 B/us).

    A zero rate maps to ``inf`` so construction never fails;
    :meth:`MachineParams.validate` rejects it.
    """
    return 1.0 / mb_per_s if mb_per_s else math.inf


@dataclass(frozen=True)
class MachineParams:
    """Tunable cost model for one simulated SP system.

    Instances are immutable: create variants with :meth:`replace`.  The
    per-byte rates (``wire_us_per_byte``, ``dma_us_per_byte``,
    ``copy_us_per_byte``) are derived once, at construction.
    """

    # ------------------------------------------------------------ network
    #: maximum payload bytes carried by one switch packet
    packet_payload: int = 1024
    #: switch link rate; SP TBMX-era links sustain ~150 MB/s per direction
    link_bandwidth_MBps: float = 150.0
    #: per-switch-stage latency
    switch_hop_us: float = 0.15
    #: number of switch stages between any node pair (small SP frame)
    switch_hops: int = 3
    #: distinct routes between each node pair (the SP switch has 4)
    route_count: int = 4
    #: extra one-way latency added per route index (route r adds r * this),
    #: modelling congestion imbalance between routes; the source of
    #: out-of-order arrival
    route_skew_us: float = 0.6
    #: uniform random extra latency per packet (congestion jitter)
    route_jitter_us: float = 0.4
    #: probability a packet is dropped in the fabric (fault injection)
    packet_loss_rate: float = 0.0
    #: fabric model: "delay" (calibrated latency + skew/jitter, default)
    #: or "staged" (explicit butterfly with per-link contention)
    fabric_model: str = "delay"

    # ------------------------------------------------------------ adapter
    #: adapter DMA engine rate between host memory and adapter SRAM
    #: (the TBMX-era I/O bus, not the link, bounds peak throughput)
    dma_bandwidth_MBps: float = 110.0
    #: fixed DMA start cost per packet
    dma_setup_us: float = 0.8
    #: adapter receive FIFO capacity, packets
    adapter_recv_fifo: int = 64
    #: adapter send FIFO capacity, packets
    adapter_send_fifo: int = 64
    #: delay from packet arrival to interrupt assertion (interrupt mode)
    interrupt_latency_us: float = 10.0
    #: CPU cost of taking + returning from an interrupt
    interrupt_overhead_us: float = 9.0

    # ------------------------------------------------------------ memory
    #: host memory copy rate (buffer-to-buffer memcpy); P2SC/604e-era
    #: memcpy sustains well under the link rate, which is why staging
    #: copies hurt the native stack so much
    copy_bandwidth_MBps: float = 150.0
    #: fixed cost per memcpy call
    copy_setup_us: float = 0.25

    # --------------------------------------------------------------- CPU
    #: cores per node: 1 models the uniprocessor P2SC nodes; the paper's
    #: TBMX systems are 4-way PowerPC SMPs (see bench_ablation_smp)
    cpus_per_node: int = 1
    #: thread-to-thread context switch (the paper's §5 culprit)
    ctx_switch_us: float = 24.0
    #: one poll of the adapter recv FIFO from a wait loop
    poll_check_us: float = 0.35

    # --------------------------------------------------------------- HAL
    #: per-packet software send cost in the HAL (packetize + handshake)
    hal_send_pkt_us: float = 1.1
    #: per-packet software receive cost in the HAL
    hal_recv_pkt_us: float = 1.1

    # -------------------------------------------------------------- Pipes
    #: per-packet Pipes protocol processing (seqno, window, ack bookkeeping)
    pipe_pkt_us: float = 1.3
    #: sliding-window size, packets
    pipe_window_pkts: int = 32
    #: cumulative-ack frequency: ack every N packets
    pipe_ack_every: int = 8
    #: delayed-ack flush: pending acks are sent at most this late
    pipe_ack_delay_us: float = 150.0
    #: retransmission timeout
    pipe_rto_us: float = 4000.0
    #: pipe staging-buffer size per peer
    pipe_buffer_bytes: int = 64 * 1024
    #: native MPI copies the first and last this-many bytes of every
    #: message through the pipe buffers (paper §2: 16 KB)
    pipe_copy_window: int = 16 * 1024

    # --------------------------------------------------------------- LAPI
    #: origin-side cost of a LAPI communication call, incl. the exposed-
    #: interface parameter checking the paper mentions in §6.1
    lapi_call_us: float = 3.4
    #: of which: parameter checking alone
    lapi_param_check_us: float = 0.7
    #: origin-side cost per packet injected (beyond the HAL's)
    lapi_tx_pkt_us: float = 0.45
    #: dispatcher cost per received packet
    lapi_dispatch_us: float = 0.9
    #: fixed cost of invoking a header handler (excl. user work inside it)
    lapi_hdr_hdl_us: float = 1.0
    #: cost of running a *predefined* completion handler in-context
    #: (Enhanced LAPI only)
    lapi_inline_cmpl_us: float = 0.5
    #: LAPI/MPI-LAPI packet header size (paper value garbled; plausible)
    lapi_header_bytes: int = 62
    #: LAPI retransmission window, packets
    lapi_window_pkts: int = 64
    #: LAPI cumulative-ack frequency
    lapi_ack_every: int = 16
    #: LAPI delayed-ack flush interval
    lapi_ack_delay_us: float = 150.0
    #: LAPI retransmission timeout
    lapi_rto_us: float = 4000.0

    # ---------------------------------------------------------- MPCI/MPI
    #: fixed software cost of an MPI-level call (semantics enforcement)
    mpi_call_us: float = 1.2
    #: cost of locking+unlocking the matching data structures (paper §5.3)
    mpi_lock_us: float = 0.5
    #: fixed cost of a matching attempt
    match_base_us: float = 0.4
    #: additional matching cost per queue entry inspected
    match_per_entry_us: float = 0.08
    #: native MPI packet header size (paper value garbled; plausible)
    native_header_bytes: int = 30
    #: eager/rendezvous switch-over (MPI default per paper §4)
    eager_limit: int = 4096
    #: early-arrival buffer capacity per task
    early_arrival_bytes: int = 1 * 1024 * 1024
    #: completion-counter pool size per peer (MPI-LAPI "Counters" variant;
    #: the addresses are exchanged at initialisation, paper §5.2)
    counter_pool_slots: int = 256
    #: fixed software cost of an MPI-3 RMA call on the LAPI stacks — thin
    #: by construction: no tag matching, no request allocation, no posted/
    #: unexpected queues (Gerstenberger et al.: the win of mapping RMA
    #: directly onto a one-sided transport)
    rma_call_us: float = 0.8
    #: contiguous puts at or under this size are queued at the origin and
    #: issued by the closing synchronization; the last one carries the
    #: fence marker piggybacked (MPICH-style deferred RMA issue — saves
    #: the standalone marker packet on the epoch's critical path)
    rma_agg_limit: int = 1024
    #: software cost of a *queued* RMA op (deferred-issue path): just an
    #: op-list append — no lock, no adapter doorbell — so it undercuts
    #: the full ``rma_call_us`` the same way MPICH's enqueue-only
    #: MPI_Put does
    rma_queue_us: float = 0.4

    # ------------------------------------- native MPI interrupt hysteresis
    #: native MPI's interrupt handler dwells this long waiting for more
    #: packets before returning (paper §6.1, Fig 13); grows on traffic
    hysteresis_initial_us: float = 80.0
    #: growth factor applied while packets keep arriving during the dwell
    hysteresis_growth: float = 1.5
    #: dwell ceiling
    hysteresis_max_us: float = 320.0

    # ---------------------------------------------------------- derived
    def __post_init__(self) -> None:
        # the cost methods run per packet and per copy: divide once here
        setattr_ = object.__setattr__  # the dataclass is frozen
        setattr_(self, "wire_us_per_byte", _us_per_byte(self.link_bandwidth_MBps))
        setattr_(self, "dma_us_per_byte", _us_per_byte(self.dma_bandwidth_MBps))
        setattr_(self, "copy_us_per_byte", _us_per_byte(self.copy_bandwidth_MBps))

    @property
    def route_base_us(self) -> float:
        """Fixed fabric traversal latency (all hops), excluding skew/jitter."""
        return self.switch_hop_us * self.switch_hops

    def copy_cost(self, nbytes: int) -> float:
        """Host memcpy cost for ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.copy_setup_us + nbytes * self.copy_us_per_byte

    def dma_cost(self, nbytes: int) -> float:
        """Adapter DMA cost for ``nbytes``."""
        return self.dma_setup_us + nbytes * self.dma_us_per_byte

    def wire_cost(self, nbytes: int) -> float:
        """Link serialisation time for ``nbytes``."""
        return nbytes * self.wire_us_per_byte

    def replace(self, **changes) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------ presets
    @classmethod
    def tbmx_332(cls) -> "MachineParams":
        """The paper's testbed: 4-way 332 MHz PowerPC SMP nodes with the
        TBMX adapter (§1, §6).  Identical to the defaults except the SMP
        core count; the paper's runs effectively dedicated one CPU to the
        MPI task, so the calibrated defaults stay uniprocessor — use this
        preset to study the SMP effect."""
        return cls(cpus_per_node=4)

    @classmethod
    def tb3_p2sc(cls) -> "MachineParams":
        """The earlier generation also described in §1: uniprocessor
        Power2-Super (P2SC) nodes with the TB3 adapter — a slower I/O
        path and slower memcpy, but a faster scalar FPU era."""
        return cls(
            cpus_per_node=1,
            dma_bandwidth_MBps=80.0,
            copy_bandwidth_MBps=120.0,
            link_bandwidth_MBps=150.0,
            ctx_switch_us=30.0,
            interrupt_latency_us=12.0,
        )

    def validate(self) -> None:
        """Raise ``ValueError`` on physically meaningless settings."""
        if self.packet_payload < 64:
            raise ValueError("packet_payload must be >= 64 bytes")
        if not (0.0 <= self.packet_loss_rate < 1.0):
            raise ValueError("packet_loss_rate must be in [0, 1)")
        if self.route_count < 1:
            raise ValueError("route_count must be >= 1")
        if self.eager_limit < 0:
            raise ValueError("eager_limit must be >= 0")
        for rate_field in ("link_bandwidth_MBps", "dma_bandwidth_MBps", "copy_bandwidth_MBps"):
            if getattr(self, rate_field) <= 0:
                raise ValueError(f"{rate_field} must be positive")
        if self.pipe_window_pkts < 1 or self.lapi_window_pkts < 1:
            raise ValueError("window sizes must be >= 1")
        if self.cpus_per_node < 1:
            raise ValueError("cpus_per_node must be >= 1")
        if self.fabric_model not in ("delay", "staged"):
            raise ValueError("fabric_model must be 'delay' or 'staged'")
        if self.lapi_header_bytes >= self.packet_payload:
            raise ValueError("lapi_header_bytes must fit in a packet")
        if self.native_header_bytes >= self.packet_payload:
            raise ValueError("native_header_bytes must fit in a packet")
