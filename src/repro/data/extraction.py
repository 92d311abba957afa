"""Batched subgraph + feature construction for SEAL samples.

:func:`build_packed_samples` turns a batch of link indices into packed
SEAL samples (enclosing subgraph + node-attribute matrix) through the
batched extraction engine (:mod:`repro.graph.bulk`) — one multi-source
BFS sweep and one columnar induce/label/pack pass instead of per-link
Python.

The extraction stream of link ``i`` is derived from the dataset seed
*and the link index*, never from shared mutable state, so the same link
produces bit-identical arrays no matter which process builds it, in
what order, or in which batch grouping — so a loader, a scorer and a
shard worker all extract the same subgraph for the same link. The
samples are also bit-identical to per-link extraction with
:func:`~repro.graph.subgraph.extract_enclosing_subgraph` (the oracle in
``tests/oracles.py``).

This module deliberately avoids importing :mod:`repro.seal.dataset`
(which imports :mod:`repro.data`); it only needs the duck-typed task
fields listed in :func:`build_packed_samples`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import obs
from repro.data.store import PackedSubgraph
from repro.graph.bulk import extract_enclosing_subgraphs
from repro.seal.features import assemble_node_features
from repro.seal.labeling import drnl_labels_from_distances
from repro.utils.rng import RngLike, derive

__all__ = ["build_packed_samples"]


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


def build_packed_samples(
    task, seed: RngLike, indices: Sequence[int]
) -> List[PackedSubgraph]:
    """Extract a batch of links into :class:`PackedSubgraph` samples.

    ``task`` is any object with the :class:`repro.seal.LinkTask` fields
    ``graph``, ``pairs``, ``name``, ``num_hops``, ``subgraph_mode``,
    ``max_subgraph_nodes`` and ``feature_config``. The whole batch goes
    through one :func:`~repro.graph.bulk.extract_enclosing_subgraphs`
    sweep plus a single fused labeling/feature pass over the packed rows.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return []

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
        node_type = graph.node_type[node_map]
        node_features = (
            None if graph.node_features is None else graph.node_features[node_map]
        )
        edge_type = graph.edge_type[bulk.edge_ids]
        edge_attr = None if graph.edge_attr is None else graph.edge_attr[bulk.edge_ids]
        labels = None
        if config.use_drnl:
            src_rows = bulk.node_offsets[:-1]
            labels = drnl_labels_from_distances(
                bulk.dist_src, bulk.dist_dst, src_rows, src_rows + 1
            )
        features = assemble_node_features(
            config,
            node_type=node_type,
            drnl=labels,
            node_features=node_features,
            node_map=node_map,
        )

        samples: List[PackedSubgraph] = []
        no = bulk.node_offsets
        eo = bulk.edge_offsets
        for pos, index in enumerate(indices):
            ns, ne = int(no[pos]), int(no[pos + 1])
            es, ee = int(eo[pos]), int(eo[pos + 1])
            samples.append(
                PackedSubgraph(
                    index=int(index),
                    num_nodes=ne - ns,
                    num_edges=ee - es,
                    edge_index=bulk.edge_index[:, es:ee],
                    features=features[ns:ne],
                    node_type=node_type[ns:ne],
                    edge_type=edge_type[es:ee],
                    edge_attr=None if edge_attr is None else edge_attr[es:ee],
                    node_features=(
                        None if node_features is None else node_features[ns:ne]
                    ),
                )
            )
    return samples
