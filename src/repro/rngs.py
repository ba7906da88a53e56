"""Named, stable random substreams derived from one cluster seed.

:class:`~repro.cluster.SPCluster` historically handed a single
``np.random.default_rng(seed)`` to the fabric.  Any new consumer of
randomness (fault injection, future congestion models) would then have
interleaved its draws with the fabric's jitter draws and silently
perturbed every existing benchmark trajectory.

:class:`RngStreams` fixes the ownership: each named consumer gets an
*independent* :class:`numpy.random.Generator` derived from the root
:class:`numpy.random.SeedSequence` as its ``spawn`` child.  A child is
built only when its stream is asked for, as ``SeedSequence(entropy,
spawn_key=(i,))``, which is exactly ``spawn(n)[i]``.  Stream identity is
positional in the canonical :data:`STREAMS` table, which is
**append-only** — inserting a name in the middle would re-key every
stream after it.  Per-node streams hang off the ``nodes`` slot and are
keyed by node id directly, so they are independent of cluster size and
of the order in which they are first requested.
"""

from __future__ import annotations

import numpy as np

__all__ = ["STREAMS", "RngStreams"]

#: Canonical stream names, in spawn-key order.  APPEND ONLY.
STREAMS = ("fabric", "faults", "nodes")


class RngStreams:
    """Independent named substreams of one seed.

    >>> streams = RngStreams(7)
    >>> streams.fabric is streams.fabric    # cached
    True
    >>> a, b = RngStreams(7), RngStreams(7)
    >>> a.fabric.random() == b.fabric.random()
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._entropy = np.random.SeedSequence(seed).entropy
        self._cache: dict[str, np.random.Generator] = {}
        self._nodes: dict[int, np.random.Generator] = {}

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` of stream ``name``:
        the root's ``spawn`` child at the name's position."""
        if name not in STREAMS:
            raise KeyError(f"unknown stream {name!r}; choose from {STREAMS}")
        return np.random.SeedSequence(self._entropy,
                                      spawn_key=(STREAMS.index(name),))

    def get(self, name: str) -> np.random.Generator:
        """The generator for stream ``name`` (cached per instance)."""
        gen = self._cache.get(name)
        if gen is None:
            gen = self._cache[name] = np.random.default_rng(self.seed_sequence(name))
        return gen

    @property
    def fabric(self) -> np.random.Generator:
        """Jitter/route draws inside the switch fabric."""
        return self.get("fabric")

    @property
    def faults(self) -> np.random.Generator:
        """Every draw made by fault injection (loss, duplication, jitter
        storms) — isolated so enabling faults never shifts fabric draws.
        A cluster's injector builds its own generator over this stream
        (from :meth:`seed_sequence`) on its first draw."""
        return self.get("faults")

    def node(self, node_id: int) -> np.random.Generator:
        """Per-node stream ``node_id``; stable under request order and
        cluster size (keyed by the node id, not a spawn counter)."""
        if node_id < 0:
            raise ValueError("node_id must be non-negative")
        gen = self._nodes.get(node_id)
        if gen is None:
            idx = STREAMS.index("nodes")
            seq = np.random.SeedSequence(
                entropy=self._entropy, spawn_key=(idx, node_id)
            )
            gen = self._nodes[node_id] = np.random.default_rng(seq)
        return gen
