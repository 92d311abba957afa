"""Packed columnar storage of extracted SEAL subgraphs.

:class:`SubgraphStore` replaces the per-link ``(Graph, features)`` object
cache with CSR-style contiguous arrays: node-axis data (features, node
types, explicit node features) and edge-axis data (edge index, edge
types, edge attributes) of *all* cached subgraphs live in a handful of
large NumPy buffers, and each link owns a ``(start, count)`` slice into
them. This cuts the per-subgraph Python object overhead (one tiny
``Graph`` plus several small arrays per link) to a few int64 entries and
makes batch collation a pure slice-copy, no object traversal.

Links may be inserted in any order — the offset tables are keyed by link
index, so lazily extracted datasets can fill the store out of order.
Buffers grow by doubling; previously returned views stay valid (they
alias the old buffer, whose contents are immutable by convention).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from repro.nn.dtype import get_compute_dtype, resolve_dtype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph -> nn)
    from repro.nn.kernels import PlanCache

__all__ = ["PackedSubgraph", "StoreInfo", "SubgraphStore"]


class PackedSubgraph(NamedTuple):
    """One link's subgraph as flat arrays (views into the store's buffers).

    ``edge_index`` uses subgraph-local node ids (targets are 0 and 1, the
    :mod:`repro.graph.subgraph` convention). ``edge_attr`` and
    ``node_features`` are ``None`` when the source graph carries none.
    """

    index: int
    num_nodes: int
    num_edges: int
    edge_index: np.ndarray
    features: np.ndarray
    node_type: np.ndarray
    edge_type: np.ndarray
    edge_attr: Optional[np.ndarray]
    node_features: Optional[np.ndarray]


class StoreInfo(NamedTuple):
    """Occupancy and memory report of one :class:`SubgraphStore`."""

    entries: int  # links currently stored
    capacity: int  # total links the store indexes
    nodes: int  # node rows in use across all stored subgraphs
    edges: int  # edge columns in use
    nbytes: int  # bytes allocated across every backing buffer
    plans: int = 0  # batch-composition plan caches retained (LRU-bounded)
    plan_hits: int = 0  # plan-cache lookups answered (reset by clear())
    plan_misses: int = 0  # plan-cache lookups missed (reset by clear())
    generation: int = 0  # bumped by clear()/evict(); salts plan-cache keys
    lifetime_plan_hits: int = 0  # monotone across clear()/evict()
    lifetime_plan_misses: int = 0  # monotone across clear()/evict()


class SubgraphStore:
    """Append-only packed cache of per-link subgraphs.

    Parameters
    ----------
    capacity: number of links the store indexes (``task.num_links``).
    feature_dim: width of the SEAL node-attribute matrices.
    edge_attr_dim: width of stored edge attributes (0 = source graph has
        none; zero-fill happens at collate time, not here).
    node_feature_dim: width of explicit node features carried by the
        source graph (0 = none).
    float_dtype: dtype of the float-valued buffers (features, explicit
        node features, edge attributes). Defaults to the active compute
        dtype, so a float32 policy halves the store's float footprint —
        ``cache_info().nbytes`` reports the actual per-array sizes.
    """

    def __init__(
        self,
        capacity: int,
        feature_dim: int,
        *,
        edge_attr_dim: int = 0,
        node_feature_dim: int = 0,
        float_dtype=None,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        self.capacity = int(capacity)
        self.feature_dim = int(feature_dim)
        self.edge_attr_dim = int(edge_attr_dim)
        self.node_feature_dim = int(node_feature_dim)
        self.float_dtype = np.dtype(
            resolve_dtype(float_dtype) if float_dtype is not None else get_compute_dtype()
        )
        # Batch-composition -> PlanCache memo. The store is append-only
        # (put() never mutates an existing entry), so a batch collated
        # from the same link indices is array-identical across epochs and
        # its segment plans can be reused verbatim. LRU-bounded so a
        # shuffled batch order, whose compositions rarely recur, cannot
        # hoard plans without bound.
        self._plan_cache: "OrderedDict[bytes, PlanCache]" = OrderedDict()
        self._plan_hits = 0
        self._plan_misses = 0
        # Lifetime counters survive clear()/evict() so downstream hit
        # rates derived from StoreInfo never go backwards; the
        # per-generation pair above describes the current graph only.
        self._lifetime_plan_hits = 0
        self._lifetime_plan_misses = 0
        # Generation stamp: bumped whenever stored content is dropped or
        # retired, so the same link indices can name different subgraphs
        # across generations. Collation salts plan-cache keys with it
        # (see plan_salt), which is how streaming snapshot versions
        # thread into the plan cache.
        self.generation = 0
        self._init_buffers()

    def _init_buffers(self) -> None:
        cap = self.capacity
        self.node_start = np.full(cap, -1, dtype=np.int64)
        self.node_count = np.zeros(cap, dtype=np.int64)
        self.edge_start = np.full(cap, -1, dtype=np.int64)
        self.edge_count = np.zeros(cap, dtype=np.int64)
        n0, e0 = 256, 512
        self.features = np.empty((n0, self.feature_dim), dtype=self.float_dtype)
        self.node_type = np.empty(n0, dtype=np.int64)
        self.node_features = (
            np.empty((n0, self.node_feature_dim), dtype=self.float_dtype)
            if self.node_feature_dim
            else None
        )
        self.edge_index = np.empty((2, e0), dtype=np.int64)
        self.edge_type = np.empty(e0, dtype=np.int64)
        self.edge_attr = (
            np.empty((e0, self.edge_attr_dim), dtype=self.float_dtype)
            if self.edge_attr_dim
            else None
        )
        self._node_tail = 0
        self._edge_tail = 0
        self._entries = 0

    # ------------------------------------------------------------------ #
    # batch plan cache
    # ------------------------------------------------------------------ #
    #: Max distinct batch compositions whose plans are retained.
    plan_cache_limit: int = 512

    def plan_lookup(self, key: bytes) -> Optional["PlanCache"]:
        """Plans previously stored for a batch composition key (LRU touch)."""
        plans = self._plan_cache.get(key)
        if plans is not None:
            self._plan_cache.move_to_end(key)
            self._plan_hits += 1
            self._lifetime_plan_hits += 1
        else:
            self._plan_misses += 1
            self._lifetime_plan_misses += 1
        return plans

    @property
    def plan_salt(self) -> bytes:
        """Generation prefix for plan-cache keys.

        Prepending this to the batch-composition bytes guarantees a plan
        cached before a clear()/evict() can never be confused with one
        for the same indices after the store's contents changed.
        """
        return self.generation.to_bytes(8, "little")

    def plan_store(self, key: bytes, plans: "PlanCache") -> None:
        """Retain ``plans`` for reuse by later batches with the same key."""
        self._plan_cache[key] = plans
        self._plan_cache.move_to_end(key)
        while len(self._plan_cache) > self.plan_cache_limit:
            self._plan_cache.popitem(last=False)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._entries

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.capacity and self.node_start[index] >= 0

    def missing(self, indices: Sequence[int]) -> np.ndarray:
        """Subset of ``indices`` not yet stored (order preserved, deduped)."""
        indices = np.asarray(indices, dtype=np.int64)
        absent = indices[self.node_start[indices] < 0]
        _, first = np.unique(absent, return_index=True)
        return absent[np.sort(first)]

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def _grow_nodes(self, extra: int) -> None:
        need = self._node_tail + extra
        cap = self.features.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        self.features = np.resize(self.features, (new_cap, self.feature_dim))
        self.node_type = np.resize(self.node_type, new_cap)
        if self.node_features is not None:
            self.node_features = np.resize(self.node_features, (new_cap, self.node_feature_dim))

    def _grow_edges(self, extra: int) -> None:
        need = self._edge_tail + extra
        cap = self.edge_index.shape[1]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        ei = np.empty((2, new_cap), dtype=np.int64)
        ei[:, : self._edge_tail] = self.edge_index[:, : self._edge_tail]
        self.edge_index = ei
        self.edge_type = np.resize(self.edge_type, new_cap)
        if self.edge_attr is not None:
            self.edge_attr = np.resize(self.edge_attr, (new_cap, self.edge_attr_dim))

    def put(self, sample: PackedSubgraph) -> None:
        """Insert one link's packed subgraph (no-op if already present)."""
        i = sample.index
        if not 0 <= i < self.capacity:
            raise IndexError(f"link index {i} outside store capacity {self.capacity}")
        if i in self:
            return
        n, e = sample.num_nodes, sample.num_edges
        if sample.features.shape != (n, self.feature_dim):
            raise ValueError(
                f"feature matrix shape {sample.features.shape} != ({n}, {self.feature_dim})"
            )
        if self.edge_attr_dim and sample.edge_attr is None:
            raise ValueError("store expects edge attributes but sample has none")
        self._grow_nodes(n)
        self._grow_edges(e)
        ns, es = self._node_tail, self._edge_tail
        self.features[ns : ns + n] = sample.features
        self.node_type[ns : ns + n] = sample.node_type
        if self.node_features is not None:
            self.node_features[ns : ns + n] = sample.node_features
        self.edge_index[:, es : es + e] = sample.edge_index
        self.edge_type[es : es + e] = sample.edge_type
        if self.edge_attr is not None:
            self.edge_attr[es : es + e] = sample.edge_attr
        self.node_start[i] = ns
        self.node_count[i] = n
        self.edge_start[i] = es
        self.edge_count[i] = e
        self._node_tail += n
        self._edge_tail += e
        self._entries += 1

    def reserve(self, capacity: int) -> None:
        """Grow the link-index space to at least ``capacity`` entries.

        Stored subgraphs, their slices and the plan cache are untouched —
        only the offset tables are extended, so a long-lived store (the
        online scorer's, which meets new pairs for as long as the process
        serves) can admit them without re-extracting anything. Shrinking
        is not supported; a smaller ``capacity`` is a no-op.
        """
        if capacity <= self.capacity:
            return
        extra = int(capacity) - self.capacity
        self.node_start = np.concatenate(
            [self.node_start, np.full(extra, -1, dtype=np.int64)]
        )
        self.node_count = np.concatenate(
            [self.node_count, np.zeros(extra, dtype=np.int64)]
        )
        self.edge_start = np.concatenate(
            [self.edge_start, np.full(extra, -1, dtype=np.int64)]
        )
        self.edge_count = np.concatenate(
            [self.edge_count, np.zeros(extra, dtype=np.int64)]
        )
        self.capacity = int(capacity)

    def clear(self) -> None:
        """Drop every stored subgraph, the plan cache, and the counters.

        The plan LRU is keyed on batch *composition* (link indices), not
        on subgraph content — after a clear the same indices name
        different subgraphs, so a surviving plan would silently collate
        the new layout with the old plan's segment structure. The serve
        path relies on this: :meth:`LinkScorer.invalidate` clears the
        store when the graph changes, and stale plans must go with it.
        ``StoreInfo``'s per-generation plan hit/miss counters reset too,
        so post-clear hit rates describe the current graph only; the
        ``lifetime_plan_*`` counters keep counting across clears.
        """
        self._init_buffers()
        self._plan_cache.clear()
        self._plan_hits = 0
        self._plan_misses = 0
        self.generation += 1

    def evict(self, indices: Sequence[int]) -> int:
        """Retire individual links, keeping everything else resident.

        The named entries become absent (``missing()`` reports them,
        ``get()`` raises) while every other link keeps its packed slice.
        Packed node/edge rows of evicted entries are *not* reclaimed —
        the store is append-only and the space is recovered at the next
        :meth:`clear` — so eviction is O(len(indices)) and never moves
        surviving data. The generation stamp is bumped (invalidating
        salted plan keys that might include an evicted slot) and the plan
        LRU is dropped, mirroring :meth:`clear`'s staleness rule.

        Returns the number of entries actually evicted.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if indices.size == 0:
            return 0
        if indices.size and (indices.min() < 0 or indices.max() >= self.capacity):
            raise IndexError("evict index outside store capacity")
        present = indices[self.node_start[indices] >= 0]
        evicted = int(np.unique(present).size)
        if evicted == 0:
            return 0
        self.node_start[present] = -1
        self.node_count[present] = 0
        self.edge_start[present] = -1
        self.edge_count[present] = 0
        self._entries -= evicted
        self._plan_cache.clear()
        self._plan_hits = 0
        self._plan_misses = 0
        self.generation += 1
        return evicted

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def get(self, index: int) -> PackedSubgraph:
        """O(1) packed view of link ``index`` (raises ``KeyError`` if absent)."""
        if index not in self:
            raise KeyError(f"link {index} not in store")
        ns, n = int(self.node_start[index]), int(self.node_count[index])
        es, e = int(self.edge_start[index]), int(self.edge_count[index])
        return PackedSubgraph(
            index=int(index),
            num_nodes=n,
            num_edges=e,
            edge_index=self.edge_index[:, es : es + e],
            features=self.features[ns : ns + n],
            node_type=self.node_type[ns : ns + n],
            edge_type=self.edge_type[es : es + e],
            edge_attr=None if self.edge_attr is None else self.edge_attr[es : es + e],
            node_features=(
                None if self.node_features is None else self.node_features[ns : ns + n]
            ),
        )

    def cache_info(self) -> StoreInfo:
        """Occupancy plus the bytes allocated across every backing buffer."""
        nbytes = (
            self.node_start.nbytes
            + self.node_count.nbytes
            + self.edge_start.nbytes
            + self.edge_count.nbytes
            + self.features.nbytes
            + self.node_type.nbytes
            + self.edge_index.nbytes
            + self.edge_type.nbytes
            + (0 if self.edge_attr is None else self.edge_attr.nbytes)
            + (0 if self.node_features is None else self.node_features.nbytes)
        )
        return StoreInfo(
            entries=self._entries,
            capacity=self.capacity,
            nodes=self._node_tail,
            edges=self._edge_tail,
            nbytes=int(nbytes),
            plans=len(self._plan_cache),
            plan_hits=self._plan_hits,
            plan_misses=self._plan_misses,
            generation=self.generation,
            lifetime_plan_hits=self._lifetime_plan_hits,
            lifetime_plan_misses=self._lifetime_plan_misses,
        )
