"""Node-attribute matrix assembly for SEAL subgraphs (paper §III-B).

The node attribute vector is the concatenation of

1. a one-hot encoding of the node's type in the knowledge graph,
2. a one-hot encoding of its DRNL label (structural information),
3. optionally the node's explicit feature vector, and
4. optionally a node2vec embedding (the paper found these did not help
   for knowledge graphs and dropped them — kept here as an ablation knob).

The resulting width is fixed across subgraphs of one dataset so batching
can concatenate matrices directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.nn.functional import one_hot
from repro.seal.labeling import DEFAULT_MAX_LABEL, drnl_one_hot

__all__ = ["FeatureConfig", "assemble_node_features"]


@dataclass
class FeatureConfig:
    """What goes into each subgraph's node attribute matrix.

    Attributes
    ----------
    num_node_types:
        Width of the node-type one-hot block (0 disables it — e.g. for a
        homogeneous graph like WordNet where type carries no information).
    use_drnl:
        Include the DRNL one-hot block (paper default: on).
    max_drnl_label:
        Clamp bound for DRNL one-hot (see :mod:`repro.seal.labeling`).
    explicit_dim:
        Width of the graph's explicit node-feature block (0 disables).
    embeddings:
        Optional ``(N_full, d)`` node2vec embedding matrix indexed by
        *original* node ids; rows are copied into the subgraph features.
    """

    num_node_types: int = 0
    use_drnl: bool = True
    max_drnl_label: int = DEFAULT_MAX_LABEL
    explicit_dim: int = 0
    embeddings: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def width(self) -> int:
        """Total feature width produced by :func:`assemble_node_features`."""
        w = 0
        if self.num_node_types > 0:
            w += self.num_node_types
        if self.use_drnl:
            w += self.max_drnl_label + 1
        w += self.explicit_dim
        if self.embeddings is not None:
            w += self.embeddings.shape[1]
        if w == 0:
            raise ValueError("feature configuration produces empty vectors")
        return w


def assemble_node_features(
    config: FeatureConfig,
    *,
    node_type: np.ndarray,
    drnl: Optional[np.ndarray],
    node_features: Optional[np.ndarray],
    node_map: np.ndarray,
) -> np.ndarray:
    """Concatenate the configured feature blocks for a set of node rows.

    The bulk extraction path assembles every subgraph of a batch in one
    call: the rows of a packed batch concatenate the same way a single
    subgraph's do. ``drnl`` holds precomputed DRNL labels and may be
    ``None`` when ``config.use_drnl`` is off.
    """
    blocks = []
    if config.num_node_types > 0:
        if node_type.max(initial=0) >= config.num_node_types:
            raise ValueError("node type exceeds configured num_node_types")
        blocks.append(one_hot(node_type, config.num_node_types))
    if config.use_drnl:
        blocks.append(drnl_one_hot(drnl, config.max_drnl_label))
    if config.explicit_dim > 0:
        if node_features is None:
            raise ValueError("explicit_dim > 0 but the graph has no node features")
        if node_features.shape[1] != config.explicit_dim:
            raise ValueError(
                f"explicit feature width {node_features.shape[1]} != {config.explicit_dim}"
            )
        blocks.append(node_features)
    if config.embeddings is not None:
        blocks.append(config.embeddings[node_map])
    return np.concatenate(blocks, axis=1)
