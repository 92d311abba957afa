"""Batched subgraph + feature construction for SEAL samples.

:func:`build_packed_samples` turns a batch of link indices into one
:class:`~repro.data.store.PackedBatch` (enclosing subgraphs + node
attribute matrices, flat arrays with per-link offsets) through the
batched extraction engine (:mod:`repro.graph.bulk`) — one multi-source
BFS sweep and one columnar induce/label/pack pass, no per-link Python.
:func:`ensure_extracted` is the one way links enter a
:class:`~repro.data.store.SubgraphStore`: the dataset, the loader, the
shard workers and the online scorer all call it.

The extraction stream of link ``i`` is derived from the dataset seed
*and the link index*, never from shared mutable state, so the same link
produces bit-identical arrays no matter which process builds it, in
what order, or in which batch grouping — so a loader, a scorer and a
shard worker all extract the same subgraph for the same link. The
arrays are also bit-identical to per-link extraction (the oracle in
``tests/oracles.py``).

This module deliberately avoids importing :mod:`repro.seal.dataset`
(which imports :mod:`repro.data`); it only needs the duck-typed task
fields listed in :func:`build_packed_samples`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.data.store import PackedBatch, SubgraphStore
from repro.graph.bulk import extract_enclosing_subgraphs
from repro.seal.features import assemble_node_features
from repro.seal.labeling import drnl_labels_from_distances
from repro.utils.rng import RngLike, derive

__all__ = ["build_packed_samples", "ensure_extracted"]


def _link_rng(task, seed: RngLike, index: int):
    """The per-link extraction stream (same in every process and path).

    The stream key defaults to the link's *index* — right for offline
    tasks, whose pair table is fixed up front. A task may instead define
    ``link_key(index) -> str`` to key the stream on the link's *content*
    (the online scorer keys on the ``"u:v"`` pair itself), so the same
    pair gets a bit-identical subgraph no matter in which order requests
    arrived and hence which slot it landed in.
    """
    key_fn = getattr(task, "link_key", None)
    key = key_fn(int(index)) if key_fn is not None else str(int(index))
    return derive(seed, "seal-extract", task.name, key)


def build_packed_samples(task, seed: RngLike, indices: Sequence[int]) -> PackedBatch:
    """Extract a batch of links into one :class:`PackedBatch`.

    ``task`` is any object with the :class:`repro.seal.LinkTask` fields
    ``graph``, ``pairs``, ``name``, ``num_hops``, ``subgraph_mode``,
    ``max_subgraph_nodes`` and ``feature_config``. The whole batch goes
    through one :func:`~repro.graph.bulk.extract_enclosing_subgraphs`
    sweep plus a single fused labeling/feature pass over the packed rows.
    """
    indices = np.asarray(indices, dtype=np.int64)
    graph = task.graph
    config = task.feature_config
    bulk = extract_enclosing_subgraphs(
        graph,
        task.pairs[indices],
        k=task.num_hops,
        mode=task.subgraph_mode,
        max_nodes=task.max_subgraph_nodes,
        rng_factory=lambda pos: _link_rng(task, seed, int(indices[pos])),
        with_label_distances=config.use_drnl,
    )

    with obs.trace("extract.pack"):
        node_map = bulk.node_map
        labels = None
        if config.use_drnl:
            src_rows = bulk.node_offsets[:-1]
            labels = drnl_labels_from_distances(
                bulk.dist_src, bulk.dist_dst, src_rows, src_rows + 1
            )
        features = assemble_node_features(
            config,
            node_type=graph.node_type[node_map],
            drnl=labels,
            node_features=(
                None if graph.node_features is None else graph.node_features[node_map]
            ),
            node_map=node_map,
        )
        edge_attr = None if graph.edge_attr is None else graph.edge_attr[bulk.edge_ids]
    return PackedBatch(
        indices=indices,
        features=features,
        edge_index=bulk.edge_index,
        edge_attr=edge_attr,
        node_offsets=bulk.node_offsets,
        edge_offsets=bulk.edge_offsets,
    )


def ensure_extracted(
    store: SubgraphStore, task, seed: RngLike, indices: Sequence[int]
) -> int:
    """Make sure every link of ``indices`` is in ``store``; returns the misses.

    The links not yet stored are extracted together
    (:func:`build_packed_samples`) and appended in one
    :meth:`SubgraphStore.put`. Every index already stored (or repeated
    within the call) counts as a cache hit, every extracted one as a
    miss. An index outside ``[0, store.capacity)`` raises ``IndexError``
    whatever the store already holds.
    """
    indices = np.asarray(indices, dtype=np.int64)
    outside = (indices < 0) | (indices >= store.capacity)
    if outside.any():
        raise IndexError(
            f"link index {indices[outside][0]} out of range for {store.capacity} links"
        )
    missing = store.missing(indices)
    hits = int(indices.size) - int(missing.size)
    if hits:
        obs.count("seal.cache.hits", float(hits))
    if missing.size:
        obs.count("seal.cache.misses", float(missing.size))
        with obs.trace("extraction"):
            store.put(build_packed_samples(task, seed, missing))
    return int(missing.size)
