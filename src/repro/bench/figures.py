"""The figure table, :data:`FIGURES`: the only place naming a figure's cells.

:func:`rows` runs a sweep; ``python -m repro.bench.report`` prints
figures and ``python -m repro.bench.artifact write`` archives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.bench import fig10, fig11, fig12, fig13, nas, rma
from repro.bench.artifact import make_artifact
from repro.bench.harness import pingpong_result
from repro.bench.parallel import Cell, run_cells
from repro.machine import MachineParams
from repro.obs import breakdown as obs_breakdown

__all__ = ["FIGURES", "Figure", "Series", "artifact", "print_table", "rows"]


def print_table(title: str, columns: Sequence[str], rows: Iterable[dict]) -> None:
    print(f"\n{title}")
    header = " | ".join(f"{c:>14}" for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for c in columns:
            v = row[c]
            cells.append(f"{v:>14.2f}" if isinstance(v, float) else f"{v:>14}")
        print(" | ".join(cells))


@dataclass(frozen=True)
class Series:
    """One printed table: a ``row(point, params)`` cell per sweep point."""

    title: str
    columns: tuple[str, ...]
    row: Callable[..., dict]
    key: Optional[str] = None  # its key in multi-series ``{key: rows}``
    min_size: Optional[int] = None  # runs only sizes >= this (or this one)

    def points(self, sweep: Sequence) -> list:
        if self.min_size is None:
            return list(sweep)
        return [x for x in sweep if x >= self.min_size] or [self.min_size]


@dataclass(frozen=True)
class Figure:
    """One figure's cells, shape check, sweeps and gated artifact."""

    series: tuple[Series, ...]
    check: Callable[[Any], list[str]]  # shape problems of rows() output
    full: tuple  # the figure's sweep; ``fast`` is for ``report --fast``
    fast: tuple
    artifact: str  # BENCH_<artifact>.json, run over ``sweep``
    sweep: tuple
    params: dict  # recorded as the artifact's params, plus ...
    sweep_key: Optional[str] = "sizes"  # ... the sweep under this key
    breakdown: tuple[str, ...] = ()  # stacks whose breakdown it carries
    metrics: Optional[str] = None  # stack whose metrics snapshot it carries
    paper: bool = True  # printed by a bare ``report``


#: message size and repetitions of the artifacts' breakdown/metrics runs
BREAKDOWN_BYTES, BREAKDOWN_REPS = 256, 4


FIGURES: dict[str, Figure] = {
    "fig10": Figure(
        (Series("Fig 10 — ping-pong: raw LAPI vs MPI-LAPI variants (us)",
                ("size", "raw-lapi", "lapi-base", "lapi-counters",
                 "lapi-enhanced"), fig10._row),),
        fig10.check_shape,
        full=(1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576),
        fast=(4, 1024, 16384, 65536),
        artifact="fig10_variants",
        sweep=(4, 256, 1024, 16384, 65536),
        params={"breakdown_bytes": BREAKDOWN_BYTES},
        breakdown=("lapi-base", "lapi-counters", "lapi-enhanced"),
    ),
    "fig11": Figure(
        (Series("Fig 11 — latency: native vs MPI-LAPI (us)",
                ("size", "native", "lapi-enhanced", "improvement_%"),
                fig11._row),),
        fig11.check_shape,
        full=(1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384),
        fast=(1, 16, 256, 1024, 4096),
        artifact="fig11_latency",
        sweep=(1, 16, 256, 1024, 4096),
        params={"breakdown_bytes": BREAKDOWN_BYTES,
                "breakdown_reps": BREAKDOWN_REPS},
        breakdown=("native", "lapi-base", "lapi-counters", "lapi-enhanced"),
        metrics="lapi-enhanced",
    ),
    "fig12": Figure(
        (Series("Fig 12 — bandwidth: native vs MPI-LAPI (MB/s)",
                ("size", "native", "lapi-enhanced", "improvement_%"),
                fig12._row),),
        fig12.check_shape,
        full=(256, 1024, 4096, 16384, 65536, 262144, 1048576),
        fast=(1024, 4096, 65536, 1048576),
        artifact="fig12_bandwidth",
        sweep=(1024, 4096, 16384, 65536, 1048576),
        params={},
    ),
    "fig13": Figure(
        (Series("Fig 13 — interrupt-mode latency (us)",
                ("size", "native", "lapi-enhanced", "speedup_x"),
                fig13._row),),
        fig13.check_shape,
        full=(1, 4, 16, 64, 256, 1024, 4096, 8192),
        fast=(4, 256, 1024),
        artifact="fig13_interrupt",
        sweep=(1, 64, 1024, 8192),
        params={},
    ),
    "nas": Figure(
        (Series("§6.2 — NAS Parallel Benchmarks, 4 nodes (us)",
                ("kernel", "native_us", "mpi_lapi_us", "improvement_%"),
                nas._row),),
        nas.check_shape,
        full=nas.KERNEL_ORDER,
        fast=nas.KERNEL_ORDER,
        artifact="nas",
        sweep=nas.KERNEL_ORDER,
        params={"nodes": 4, "class": "S"},
        sweep_key=None,
    ),
    "rma": Figure(
        (Series("RMA put ping-pong vs two-sided send/recv (us, one-way)",
                ("size", *(f"rma:{s}" for s in rma.LAT_STACKS),
                 *(f"2s:{s}" for s in rma.LAT_STACKS)),
                rma._lat_row, key="latency"),
         Series("Passive target: lock+put+unlock round (us)",
                ("size", "lock:lapi-enhanced", "lock:native"),
                rma._lock_row, key="lock"),
         Series("Streaming put bandwidth (MB/s)",
                ("size", "bw:lapi-enhanced", "bw:native"),
                rma._bw_row, key="bandwidth", min_size=1024)),
        rma.check,
        full=(8, 256, 1024, 16384),
        fast=(8, 1024),
        artifact="rma",
        sweep=(8, 256, 1024, 16384),
        params={"stacks": list(rma.LAT_STACKS)},
        paper=False,
    ),
}


def rows(name: str, sweep: Optional[Sequence] = None,
         params: Optional[MachineParams] = None, jobs: Optional[int] = None):
    """Figure ``name``'s rows over ``sweep`` (default: its full sweep),
    ``{series key: rows}`` if it has several series; same at any ``jobs``."""
    fig = FIGURES[name]
    points = [s.points(fig.full if sweep is None else sweep)
              for s in fig.series]
    out = iter(run_cells([Cell(s.row, x, params)
                          for s, xs in zip(fig.series, points) for x in xs],
                         jobs=jobs))
    tables = {s.key: list(islice(out, len(xs)))
              for s, xs in zip(fig.series, points)}
    return tables if len(tables) > 1 else tables.popitem()[1]


def _flatten(data: dict[str, list[dict]]) -> list[dict]:
    """One artifact row per (series, size) cell, padded with ``None`` to
    the union of all series' columns (the schema wants equal keys)."""
    flat = [{"label": f"{key}:{row['size']}", "series": key,
             **{k: v for k, v in row.items() if k != "size"}}
            for key, table in data.items() for row in table]
    columns = sorted({k for r in flat for k in r})
    return [{k: r.get(k) for k in columns} for r in flat]


def artifact(name: str, jobs: Optional[int] = None) -> tuple[dict, list[str]]:
    """Figure ``name``'s artifact document and its shape problems."""
    fig = FIGURES[name]
    data = rows(name, fig.sweep, jobs=jobs)
    params = dict(fig.params)
    if fig.sweep_key is not None:
        params[fig.sweep_key] = list(fig.sweep)
    breakdown = {stack: obs_breakdown(stack, BREAKDOWN_BYTES,
                                      reps=BREAKDOWN_REPS)[0]
                 for stack in fig.breakdown}
    metrics = (pingpong_result(fig.metrics, BREAKDOWN_BYTES,
                               reps=BREAKDOWN_REPS).metrics
               if fig.metrics else None)
    doc = make_artifact(fig.artifact, params,
                        _flatten(data) if isinstance(data, dict) else data,
                        metrics=metrics, breakdown=breakdown or None)
    return doc, fig.check(data)
