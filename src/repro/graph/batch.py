"""Block-diagonal batching of subgraphs.

GNN mini-batching concatenates many small graphs into one large graph
whose adjacency is block-diagonal: node ids are offset per graph and a
``batch`` vector records which graph each node belongs to. One forward
pass over the batched graph then processes the whole mini-batch — the
standard PyG trick, essential here because enclosing subgraphs are tiny
and per-graph Python dispatch would dominate runtime. Batches are built
from the packed subgraph store by
:func:`repro.data.loader.collate_from_store`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.nn.kernels import PlanCache

__all__ = ["GraphBatch"]


@dataclass
class GraphBatch:
    """A batch of graphs fused into one block-diagonal graph.

    Attributes
    ----------
    edge_index: ``(2, E_total)`` arcs with per-graph node offsets applied.
    node_features: ``(N_total, F)`` stacked node feature rows.
    edge_attr: ``(E_total, D)`` stacked edge attributes (zeros when absent).
    batch: ``(N_total,)`` graph id of every node.
    num_graphs: number of member graphs.
    num_nodes: total node count.

    The arrays are immutable by convention: :attr:`plans` memoizes
    segment-reduction structure derived from them, and
    :class:`~repro.data.store.SubgraphStore` may share that structure
    across epochs for batches with identical composition.
    """

    edge_index: np.ndarray
    node_features: np.ndarray
    edge_attr: np.ndarray
    batch: np.ndarray
    num_graphs: int
    _plan_cache: Optional[PlanCache] = field(default=None, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    @property
    def plans(self) -> PlanCache:
        """Lazily built :class:`~repro.nn.kernels.PlanCache` for this batch.

        The first model layer to touch it pays one argsort per index
        array; every later op, layer and backward pass of the batch —
        and, via the store's plan cache, every later epoch serving the
        same batch composition — reuses the precomputed plans.
        """
        if self._plan_cache is None:
            self._plan_cache = PlanCache(
                self.edge_index,
                self.num_nodes,
                batch=self.batch,
                num_graphs=self.num_graphs,
            )
        return self._plan_cache
