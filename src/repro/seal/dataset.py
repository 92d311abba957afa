"""Link-classification tasks and the SEAL per-link sample cache.

A :class:`LinkTask` bundles a knowledge graph with the labeled node pairs
to classify. :class:`SEALDataset` materializes, for every pair, the
k-hop enclosing subgraph (target link removed) and its node attribute
matrix, caching the results in a packed
:class:`~repro.data.store.SubgraphStore`.

Batch serving lives in :mod:`repro.data`: a
:class:`~repro.data.DataLoader` drives extraction and collates store
slices into :class:`~repro.graph.batch.GraphBatch` objects;
:func:`repro.data.warm` fills the whole store up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.data.store import SubgraphStore
from repro.graph.batch import GraphBatch
from repro.graph.structure import Graph
from repro.seal.features import FeatureConfig
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "LinkTask",
    "SEALDataset",
    "CacheInfo",
    "train_test_split_indices",
    "sample_negative_pairs",
]


def sample_negative_pairs(
    graph: Graph,
    num_pairs: int,
    *,
    rng: RngLike = None,
) -> np.ndarray:
    """Sample node pairs that are *not* edges of ``graph`` (negatives).

    Standard negative sampling for custom link-prediction tasks built on
    this library. Pairs are undirected (returned with ``u < v``),
    distinct, and exclude self-pairs and existing arcs.

    The banned set is a sorted array of ``u * N + v`` codes built with
    vectorized NumPy (no Python loop over arcs), and candidates are drawn
    in batches — O(E) Python-object work per call used to dominate this
    function on large graphs.

    Raises ``RuntimeError`` when the graph is too dense to find enough
    negatives within ``100 * num_pairs`` draws.
    """
    if num_pairs < 0:
        raise ValueError("num_pairs must be non-negative")
    gen = ensure_rng(rng)
    n = graph.num_nodes
    src, dst = graph.edge_index
    banned = np.unique(np.minimum(src, dst).astype(np.int64) * n + np.maximum(src, dst))

    out: List[int] = []
    seen = set()
    attempts = 0
    limit = 100 * max(num_pairs, 1)
    while len(out) < num_pairs:
        if attempts >= limit:
            raise RuntimeError("could not sample enough negative pairs")
        draw = min(limit - attempts, max(32, 2 * (num_pairs - len(out))))
        attempts += draw
        cand = gen.integers(0, n, size=(draw, 2))
        lo = np.minimum(cand[:, 0], cand[:, 1])
        hi = np.maximum(cand[:, 0], cand[:, 1])
        keys = lo * n + hi
        ok = lo != hi
        if banned.size:
            pos = np.searchsorted(banned, keys)
            pos = np.minimum(pos, banned.size - 1)
            ok &= banned[pos] != keys
        for key in keys[ok].tolist():
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
            if len(out) == num_pairs:
                break
    codes = np.asarray(out, dtype=np.int64)
    result = np.empty((num_pairs, 2), dtype=np.int64)
    result[:, 0] = codes // n if num_pairs else 0
    result[:, 1] = codes % n if num_pairs else 0
    return result


@dataclass
class LinkTask:
    """A link-classification problem over one knowledge graph.

    Attributes
    ----------
    graph:
        The full KG with symmetric arcs. Target links may or may not be
        present as arcs; their own arcs are always removed from their own
        enclosing subgraphs.
    pairs: ``(M, 2)`` node pairs whose relationship is to be classified.
    labels: ``(M,)`` integer class of each pair.
    num_classes: label-space size.
    class_names: human-readable class names (len == num_classes).
    name: dataset name (reporting).
    subgraph_mode: ``"union"`` or ``"intersection"`` (paper §III-A).
    num_hops: neighborhood radius ``k`` (paper: 2).
    max_subgraph_nodes: cap on enclosing-subgraph size.
    edge_attr_dim: width of edge attributes fed to the models (0 = none).
    feature_config: node attribute recipe for this dataset.
    """

    graph: Graph
    pairs: np.ndarray
    labels: np.ndarray
    num_classes: int
    feature_config: FeatureConfig
    class_names: Sequence[str] = field(default_factory=list)
    name: str = "task"
    subgraph_mode: str = "union"
    num_hops: int = 2
    max_subgraph_nodes: Optional[int] = 100
    edge_attr_dim: int = 0

    def __post_init__(self) -> None:
        self.pairs = np.asarray(self.pairs, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (M, 2)")
        if self.labels.shape != (self.pairs.shape[0],):
            raise ValueError("labels must have one entry per pair")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")
        if not self.class_names:
            self.class_names = [f"class_{c}" for c in range(self.num_classes)]
        if len(self.class_names) != self.num_classes:
            raise ValueError("class_names length must equal num_classes")

    @property
    def num_links(self) -> int:
        return int(self.pairs.shape[0])

    def class_counts(self) -> np.ndarray:
        """Number of examples per class (reporting / weighting)."""
        return np.bincount(self.labels, minlength=self.num_classes)


def train_test_split_indices(
    n: int,
    test_fraction: float = 0.2,
    *,
    labels: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Disjoint shuffled train/test index split, optionally stratified.

    With ``labels`` given, each class is split separately so small classes
    stay represented in both folds (BioKG's scarce target relations need
    this, per the paper's remark on limited samples).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    gen = ensure_rng(rng)
    if labels is None:
        perm = gen.permutation(n)
        n_test = max(1, int(round(n * test_fraction)))
        return np.sort(perm[n_test:]), np.sort(perm[:n_test])
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError("labels must have length n")
    train_parts, test_parts = [], []
    for c in np.unique(labels):
        idx = np.nonzero(labels == c)[0]
        idx = gen.permutation(idx)
        n_test = max(1, int(round(len(idx) * test_fraction))) if len(idx) > 1 else 0
        test_parts.append(idx[:n_test])
        train_parts.append(idx[n_test:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


class CacheInfo(NamedTuple):
    """Subgraph-cache statistics, in the :func:`functools.lru_cache` idiom."""

    hits: int
    misses: int
    size: int  # cached entries
    capacity: int  # total links


class SEALDataset:
    """Materialized SEAL samples (subgraph + features) for a LinkTask.

    Each link's extraction stream is derived from the dataset seed *and
    the link index* (see :mod:`repro.data.extraction`), so the cached
    subgraph of link ``i`` is identical no matter in which order — or in
    which process — links are first built. Extracted samples live in a
    packed :class:`~repro.data.store.SubgraphStore` (``.store``); its
    ``cache_info()`` reports the memory footprint.
    """

    def __init__(self, task: LinkTask, *, rng: RngLike = None):
        self.task = task
        self._rng_seed: RngLike = rng if rng is not None else 0
        g = task.graph
        self.store = SubgraphStore(
            task.num_links,
            task.feature_config.width,
            edge_attr_dim=0 if g.edge_attr is None else g.edge_attr.shape[1],
        )
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return self.task.num_links

    @property
    def feature_width(self) -> int:
        return self.task.feature_config.width

    @property
    def rng_seed(self) -> RngLike:
        """Seed material of the per-link extraction streams."""
        return self._rng_seed

    # ------------------------------------------------------------------ #
    # extraction into the store
    # ------------------------------------------------------------------ #
    def ensure_many(self, indices: Sequence[int]) -> None:
        """Make sure every link of ``indices`` is in the store.

        Cache misses are extracted together and appended to the store in
        one write (:func:`repro.data.extraction.ensure_extracted`). Every
        index already stored (or repeated within the call) counts as a
        cache hit, every extracted one as a miss. An index outside
        ``[0, len(self))`` raises ``IndexError``.
        """
        from repro.data.extraction import ensure_extracted  # import cycle guard

        indices = np.asarray(indices, dtype=np.int64)
        misses = ensure_extracted(self.store, self.task, self._rng_seed, indices)
        self._misses += misses
        self._hits += int(indices.size) - misses

    def cache_info(self) -> CacheInfo:
        """Hits/misses/occupancy of the subgraph cache.

        For the packed-array memory report use ``self.store.cache_info()``.
        """
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self.store),
            capacity=self.task.num_links,
        )

    # ------------------------------------------------------------------ #
    # batching (thin wrapper over repro.data)
    # ------------------------------------------------------------------ #
    def batch(self, indices: Sequence[int]) -> Tuple[GraphBatch, np.ndarray]:
        """Collate the given links into one batch; returns (batch, labels)."""
        from repro.data.loader import collate_from_store

        indices = np.asarray(indices, dtype=np.int64)
        self.ensure_many(indices)
        batch = collate_from_store(
            self.store, indices, edge_attr_dim=self.task.edge_attr_dim
        )
        return batch, self.task.labels[indices]
