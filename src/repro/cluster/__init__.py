"""Cluster assembly: build an N-node simulated SP with a chosen stack."""

from repro.cluster.cluster import (
    STACKS,
    DeadlockError,
    RankResult,
    RunResult,
    SPCluster,
)
from repro.lazy import lazy_exports

# named configurations load on first use; building a cluster needs none
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.config": ("PRESETS", "ClusterConfig", "preset"),
})

__all__ = [
    "ClusterConfig",
    "DeadlockError",
    "PRESETS",
    "RankResult",
    "RunResult",
    "SPCluster",
    "STACKS",
    "preset",
]
