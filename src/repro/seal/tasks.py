"""Task builders: turn *any* graph into a SEAL link task.

The dataset loaders in :mod:`repro.datasets` build the paper's four
benchmarks; this module is the general-purpose entry point for users
bringing their own graphs:

:func:`make_link_prediction_task` builds a binary existence task
(positives sampled from real edges, negatives from non-edges), the
classic SEAL setting. Labeled pairs the caller already has go straight
into a :class:`~repro.seal.dataset.LinkTask`.
"""

from __future__ import annotations

import numpy as np

from repro.graph.structure import Graph
from repro.seal.dataset import LinkTask, sample_negative_pairs
from repro.seal.features import FeatureConfig
from repro.utils.rng import RngLike, derive, ensure_rng

__all__ = ["make_link_prediction_task"]


def _default_features(graph: Graph) -> FeatureConfig:
    """Type one-hot ‖ DRNL ‖ explicit features, adapted to the graph."""
    return FeatureConfig(
        num_node_types=graph.num_node_types if graph.num_node_types > 1 else 0,
        use_drnl=True,
        explicit_dim=0 if graph.node_features is None else graph.node_features.shape[1],
    )


def make_link_prediction_task(
    graph: Graph,
    num_samples: int,
    *,
    name: str = "link-prediction",
    rng: RngLike = 0,
) -> LinkTask:
    """Build a binary existence task from ``graph``.

    ``num_samples // 2`` positives are drawn uniformly from the graph's
    undirected edges (each is removed from its own enclosing subgraph at
    extraction time — the standard SEAL leakage guard); the rest are
    sampled non-edges. Class 1 = link exists. Node features follow the
    graph (type one-hot when typed, DRNL, explicit rows when present);
    extraction takes :class:`~repro.seal.dataset.LinkTask`'s defaults.
    """
    if num_samples < 2:
        raise ValueError("need at least two samples")
    gen = ensure_rng(derive(rng, "linkpred", name))
    src, dst = graph.edge_index
    undirected = np.unique(
        np.stack([np.minimum(src, dst), np.maximum(src, dst)], axis=1), axis=0
    )
    undirected = undirected[undirected[:, 0] != undirected[:, 1]]
    n_pos = num_samples // 2
    if n_pos > len(undirected):
        raise ValueError("graph has too few edges for the requested positives")
    pick = gen.choice(len(undirected), size=n_pos, replace=False)
    pos = undirected[pick]
    neg = sample_negative_pairs(graph, num_samples - n_pos, rng=gen)
    pairs = np.concatenate([pos, neg])
    labels = np.concatenate(
        [np.ones(n_pos, dtype=np.int64), np.zeros(num_samples - n_pos, dtype=np.int64)]
    )
    perm = gen.permutation(num_samples)
    return LinkTask(
        graph=graph,
        pairs=pairs[perm],
        labels=labels[perm],
        num_classes=2,
        feature_config=_default_features(graph),
        class_names=["no-link", "link"],
        name=name,
        edge_attr_dim=0 if graph.edge_attr is None else graph.edge_attr.shape[1],
    )
