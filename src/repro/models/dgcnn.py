"""DGCNN graph classifier — shared readout for both models (paper Fig. 2).

The architecture (Zhang et al. AAAI'18, as used by SEAL):

1. A stack of graph-convolution layers with ``tanh`` activations; the last
   layer has width 1 and its output doubles as the SortPooling key.
2. All layer outputs concatenated → ``(N, sum(dims))``.
3. SortPooling to ``k`` nodes per graph.
4. ``Conv1d(1→16, kernel=stride=total_dim)`` over the flattened sorted
   sequence — a learned per-node projection, so it runs fused with step 3
   (:mod:`repro.models.sort_pool`): the kept node rows are projected
   first and the projections pooled, never the ``(B·k, total_dim)`` block.
5. ``MaxPool1d(2)`` then ``Conv1d(16→32, kernel=5, stride=1)``.
6. Dense(128) + ReLU + Dropout(0.5) + Dense(num_classes) → logits.

:class:`DGCNNBackbone` is parameterized by the message-passing layer
factory; :class:`VanillaDGCNN` (GCN layers — edge-attr blind) and
:class:`AMDGCNN` in :mod:`repro.models.am_dgcnn` (GAT layers with edge
attributes) both instantiate it, so the *only* difference between the two
models is exactly the modification the paper proposes.
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.graph.batch import GraphBatch
from repro.nn import functional as F
from repro.nn.conv import Conv1d, MaxPool1d
from repro.nn.dense import Dropout, Linear
from repro.nn.indexing import gather
from repro.nn.module import Module, ModuleList
from repro.nn.tensor import Tensor, concatenate
from repro.models.layers import GCNConv
from repro.models.sort_pool import PooledProjection, SortPooling
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["DGCNNBackbone", "VanillaDGCNN"]

# Layer factory signature: (in_dim, out_dim, rng) -> Module
ConvFactory = Callable[[int, int, np.random.Generator], Module]

#: widths of the two 1-D convolutions, the second's kernel and the dense
#: classifier's hidden width: the DGCNN defaults SEAL uses
CONV1D_CHANNELS = (16, 32)
CONV1D_KERNEL2 = 5
DENSE_DIM = 128


class DGCNNBackbone(Module):
    """DGCNN with a pluggable graph-convolution layer.

    Parameters
    ----------
    in_dim: node-feature width.
    num_classes: output logits.
    conv_factory: builds each message-passing layer.
    hidden_dim: width of each hidden graph-conv layer (paper Table I
        options: 16/32/64/128).
    num_conv_layers: hidden layer count before the 1-channel sort layer.
    sort_k: SortPooling retained-node count (paper Table I: 5..150).
    dropout: classifier dropout probability (DGCNN: 0.5).
    center_pool:
        Concatenate the embeddings of the two *target* nodes (always the
        first two nodes of every SEAL subgraph) onto the graph
        representation before the dense classifier. Applied identically
        to both models. SEAL-style link classifiers need the target
        nodes' states; with the paper's sample budgets (10³–10⁴ links)
        pure SortPooling eventually localizes them, but at this
        reproduction's reduced scale the extra readout makes training
        sample-efficient and stable (see DESIGN.md). Set False for the
        strict original DGCNN readout (ablated in the benchmarks).
    """

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        conv_factory: ConvFactory,
        *,
        hidden_dim: int = 32,
        num_conv_layers: int = 3,
        sort_k: int = 30,
        dropout: float = 0.5,
        center_pool: bool = True,
        rng: RngLike = None,
    ):
        super().__init__()
        if num_conv_layers < 1:
            raise ValueError("need at least one hidden conv layer")
        gen = ensure_rng(rng)
        dims: List[int] = [in_dim] + [hidden_dim] * num_conv_layers + [1]
        self.convs = ModuleList(
            [conv_factory(dims[i], dims[i + 1], gen) for i in range(len(dims) - 1)]
        )
        self.total_dim = sum(dims[1:])  # concatenated conv outputs
        self.sort_pool = SortPooling(sort_k)
        self.sort_k = sort_k

        c1, c2 = CONV1D_CHANNELS
        self.conv1 = PooledProjection(self.total_dim, c1, rng=gen)
        self.pool = MaxPool1d(2)
        # Guard: the second conv needs enough pooled length.
        pooled_len = self.pool.out_length(sort_k)
        if pooled_len < 1:
            raise ValueError(f"sort_k={sort_k} pools to nothing in MaxPool1d(2); need sort_k >= 2")
        kernel2 = min(CONV1D_KERNEL2, pooled_len)
        self.conv2 = Conv1d(c1, c2, kernel_size=kernel2, stride=1, rng=gen)
        flat = c2 * self.conv2.out_length(pooled_len)

        self.center_pool = center_pool
        if center_pool:
            flat += 2 * self.total_dim  # target-node embeddings appended
        self.lin1 = Linear(flat, DENSE_DIM, rng=gen)
        self.drop = Dropout(dropout, rng=gen)
        self.lin2 = Linear(DENSE_DIM, num_classes, rng=gen)
        self.num_classes = num_classes

    def node_embeddings(self, batch: GraphBatch) -> Tensor:
        """Concatenated per-node outputs of every graph-conv layer."""
        x = Tensor(batch.node_features)
        plans = batch.plans
        outs: List[Tensor] = []
        for conv in self.convs:
            x = F.tanh(conv(x, batch.edge_index, batch.edge_attr, plans=plans))
            outs.append(x)
        return concatenate(outs, axis=1)

    def forward(self, batch: GraphBatch) -> Tensor:
        """Per-graph class logits ``(num_graphs, num_classes)``."""
        node_plan = batch.plans.node()
        z = self.node_embeddings(batch)  # (N, total_dim)
        rows = self.sort_pool(z, batch.batch, batch.num_graphs, plan=node_plan)
        b = batch.num_graphs
        h = F.relu(self.conv1(z, rows))
        h = self.pool(h)
        h = F.relu(self.conv2(h))
        h = h.reshape(b, h.shape[1] * h.shape[2])
        if self.center_pool:
            # SEAL places the target endpoints at local indices 0 and 1 of
            # every subgraph; their batch offsets are the graph starts.
            starts = node_plan.indptr[:-1]
            centers = gather(z, np.stack([starts, starts + 1], axis=1).ravel())
            h = concatenate([h, centers.reshape(b, 2 * self.total_dim)], axis=1)
        h = F.relu(self.lin1(h))
        h = self.drop(h)
        return self.lin2(h)


class VanillaDGCNN(DGCNNBackbone):
    """The baseline: DGCNN with GCN message passing (edge-attribute blind).

    This is the "vanilla DGCNN" column of the paper's Table III. Edge
    attributes present in the batch are ignored by every layer.
    """

    def __init__(
        self,
        in_dim: int,
        num_classes: int,
        *,
        hidden_dim: int = 32,
        num_conv_layers: int = 3,
        sort_k: int = 30,
        dropout: float = 0.5,
        center_pool: bool = True,
        rng: RngLike = None,
    ):
        def factory(i: int, o: int, gen: np.random.Generator) -> Module:
            return GCNConv(i, o, rng=gen)

        super().__init__(
            in_dim,
            num_classes,
            factory,
            hidden_dim=hidden_dim,
            num_conv_layers=num_conv_layers,
            sort_k=sort_k,
            dropout=dropout,
            center_pool=center_pool,
            rng=rng,
        )
