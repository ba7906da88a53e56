"""Observability: metrics registry, latency breakdowns, message spans."""

from repro.obs.breakdown import (
    CAPTURE_MODES,
    PHASES,
    Breakdown,
    TruncatedTraceError,
    breakdown,
    capture,
    lapi_breakdowns,
    pipes_breakdowns,
    summarize,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.lazy import lazy_exports

# Capture analysis loads on first use.  ``breakdown`` stays eager: it is
# both a submodule and a function, and once any import of the submodule
# (``spans`` makes one) binds the package attribute to the module, no
# lazy hook runs to give back the function.  ``repro.trace``, which it
# imports, stays eager with it.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.chrometrace": ("to_chrome_trace", "write_chrome_trace"),
    "repro.obs.rma": ("rma_op_phases", "rma_records", "rma_summary"),
    "repro.obs.spans": ("MessageTree", "Span", "build_span_trees", "render_text"),
})

__all__ = [
    "Breakdown",
    "CAPTURE_MODES",
    "Counter",
    "Gauge",
    "Histogram",
    "MessageTree",
    "MetricsRegistry",
    "PHASES",
    "Span",
    "TruncatedTraceError",
    "breakdown",
    "build_span_trees",
    "capture",
    "lapi_breakdowns",
    "pipes_breakdowns",
    "render_text",
    "rma_op_phases",
    "rma_records",
    "rma_summary",
    "summarize",
    "to_chrome_trace",
    "write_chrome_trace",
]
