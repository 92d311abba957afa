"""SortPooling readout (Zhang et al., AAAI'18).

Turns the variable-size node embedding matrix of each graph in a batch
into a fixed ``(k, F)`` block: nodes are sorted descending by their last
feature channel (the "continuous WL color" produced by the final 1-channel
graph convolution), the top ``k`` rows are kept, and graphs with fewer
than ``k`` nodes are zero-padded. Gradients flow only through the
retained rows.

The whole batch is pooled with a single ``gather`` — a per-graph sort is
expressed as one ``np.lexsort`` over (graph id, -key).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.indexing import gather
from repro.nn.kernels import SegmentPlan
from repro.nn.module import Module
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["SortPooling", "sort_pool"]


def sort_pool(
    x: Tensor,
    batch: np.ndarray,
    num_graphs: int,
    k: int,
    *,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Sort-pool node embeddings into ``(num_graphs, k, F)``.

    Parameters
    ----------
    x: ``(N, F)`` node embeddings for the whole batch.
    batch: ``(N,)`` graph id per node.
    num_graphs: number of graphs ``B``.
    k: retained nodes per graph.
    plan: optional :class:`SegmentPlan` over ``(batch, num_graphs)`` —
        supplies the per-graph counts/starts without re-deriving them
        (built here when omitted). The per-graph key sort is
        data-dependent and always recomputed.
    """
    x = as_tensor(x)
    if k <= 0:
        raise ValueError("k must be positive")
    batch = np.asarray(batch)
    n, f = x.shape
    if batch.shape != (n,):
        raise ValueError("batch must have one entry per node")

    key = x.data[:, -1]
    # Rows grouped by graph, descending key inside each graph. lexsort
    # sorts by last key first, so order: primary batch, secondary -key.
    order = np.lexsort((-key, batch))
    if plan is None:
        plan = SegmentPlan(batch, num_graphs)
    else:
        plan.check(batch, num_graphs)
    counts = plan.counts
    starts = plan.indptr[:-1]

    # Selection matrix (B, k): row indices into `order`, -1 where padded.
    offsets = np.arange(k)[None, :]
    sel = starts[:, None] + offsets  # (B, k) positions in `order`
    valid = offsets < counts[:, None]
    sel_rows = np.where(valid, order[np.minimum(sel, n - 1)], 0)

    pooled = gather(x, sel_rows.ravel())  # (B*k, F)
    mask = valid.astype(x.data.dtype).reshape(num_graphs * k, 1)
    pooled = pooled * Tensor(mask)
    return pooled.reshape(num_graphs, k, f)


class SortPooling(Module):
    """Module wrapper around :func:`sort_pool` with a fixed ``k``."""

    def __init__(self, k: int):
        super().__init__()
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def forward(
        self,
        x: Tensor,
        batch: np.ndarray,
        num_graphs: int,
        *,
        plan: Optional[SegmentPlan] = None,
    ) -> Tensor:
        return sort_pool(x, batch, num_graphs, self.k, plan=plan)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortPooling(k={self.k})"
