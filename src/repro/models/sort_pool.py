"""SortPooling readout (Zhang et al., AAAI'18), projected before it pools.

SortPooling turns the variable-size node embedding matrix of each graph
in a batch into a fixed ``(k, F)`` block: nodes are sorted descending by
their last feature channel (the "continuous WL color" produced by the
final 1-channel graph convolution), the top ``k`` rows are kept, and
graphs with fewer than ``k`` nodes are zero-padded. DGCNN's first 1-D
convolution then reads that block with kernel = stride = ``F``: it is a
per-row dense map ``(F → C)`` of the pooled rows.

The two run here as one op, in two modules:

* :class:`SortPooling` picks the rows: one ``np.lexsort`` over
  (graph id, -key) orders every graph of the batch at once, and the
  result is a ``(B, k)`` table of node rows, ``N`` marking padding.
* :class:`PooledProjection` (DGCNN's ``conv1``) multiplies the node
  rows some graph keeps plus one padding row by the weight, then takes
  the selected rows and adds the bias. That is ``min(N, B·k)`` rows or
  fewer: all ``N`` nodes when graphs are smaller than ``k`` (the tuned
  AM-DGCNN batches), at most ``B·k`` when they are larger (small
  ``sort_k``). The ``(B·k, F)`` block is never built in the forward.

**Bit-identity.** The result is the bytes of the unfused chain — gather
the ``(B·k, F)`` block, zero its padding rows, multiply it by the
weight, add the bias — whose test oracle is
``tests/oracles.py::sort_pool_readout``:

* 2-D products are row-invariant
  (:func:`repro.nn.tensor._row_invariant_matmul`), so a kept row's
  product is the same bits as that row of ``block @ W``;
* the padding row is the chain's masked row ``z[0]·0``, signed zeros
  included;
* the backward rebuilds the block and runs the chain's arithmetic in
  its order: ``block.T @ g`` for the weight, the column sum for the
  bias, and for ``z`` the product ``g @ W.T`` added onto zeros (as the
  im2col adjoint does), masked, and summed back onto the selected rows
  through a :class:`~repro.nn.kernels.SegmentPlan`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dense import Linear
from repro.nn.dtype import coerce
from repro.nn.kernels import SegmentPlan
from repro.nn.module import Module
from repro.nn.tensor import Tensor, _row_invariant_matmul, as_tensor

__all__ = ["SortPooling", "PooledProjection"]


class SortPooling(Module):
    """Per-graph top-``k`` row selection by the last channel."""

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
    ) -> np.ndarray:
        """The ``(num_graphs, k)`` rows of ``x`` each graph keeps.

        Row ``j`` of graph ``b`` is its node with the ``j``-th largest
        last channel; slots past the graph's node count hold ``N`` (one
        past the last node), the padding row.

        Parameters
        ----------
        x: ``(N, F)`` node embeddings for the whole batch.
        batch: ``(N,)`` graph id per node.
        num_graphs: number of graphs ``B``.
        plan: optional :class:`SegmentPlan` over ``(batch, num_graphs)`` —
            supplies the per-graph counts/starts without re-deriving them
            (built here when omitted). The per-graph key sort is
            data-dependent and always recomputed.
        """
        x = as_tensor(x)
        batch = np.asarray(batch)
        n = x.shape[0]
        if batch.shape != (n,):
            raise ValueError("batch must have one entry per node")
        # Rows grouped by graph, descending key inside each graph. lexsort
        # sorts by last key first, so order: primary batch, secondary -key.
        order = np.lexsort((-x.data[:, -1], batch))
        if plan is None:
            plan = SegmentPlan(batch, num_graphs)
        else:
            plan.check(batch, num_graphs)
        offsets = np.arange(self.k)[None, :]
        sel = plan.indptr[:-1, None] + offsets  # (B, k) positions in `order`
        valid = offsets < plan.counts[:, None]
        return np.where(valid, order[np.minimum(sel, n - 1)], n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SortPooling(k={self.k})"


class PooledProjection(Linear):
    """DGCNN's first 1-D convolution, applied to the rows SortPooling keeps.

    With one input channel and kernel = stride = ``in_features`` that
    convolution is this linear map of each pooled row, and its weight
    ``(in_features, out_features)`` and bias ``(out_features,)`` are laid
    out as :class:`repro.nn.conv.Conv1d`'s with those sizes.
    """

    def forward(self, x: Tensor, rows: np.ndarray) -> Tensor:
        """``(B, out_features, k)`` projections of the ``(B, k)`` rows of ``x``.

        ``rows`` comes from :class:`SortPooling`; a row ``N`` reads as the
        zero padding row.
        """
        x = as_tensor(x)
        z, w, bias = x.data, self.weight.data, self.bias.data
        n, f = z.shape
        b, k = rows.shape
        c = self.out_features
        flat = rows.ravel()
        valid = flat < n
        index = np.where(valid, flat, 0)  # node row per slot; padding reads row 0
        mask = valid.astype(z.dtype).reshape(b * k, 1)
        # The node rows some graph keeps (all N when graphs are smaller than
        # k, at most B·k otherwise) projected, then the padding row z[0]·0.
        kept = np.take(z, flat[valid], axis=0)
        y = np.concatenate(
            [coerce(_row_invariant_matmul(kept, w)), coerce(_row_invariant_matmul(z[:1] * 0.0, w))]
        )
        slot = np.where(valid, np.cumsum(valid) - 1, len(kept))  # row of y per slot
        out = np.take(y + bias, slot, axis=0).reshape(b, k, c).transpose(0, 2, 1)

        def pooled_grad(g: np.ndarray) -> np.ndarray:
            """``(B, C, k)`` output gradient as ``(B·k, C)`` rows."""
            return g.transpose(0, 2, 1).reshape(b * k, c)

        def vjp_x(g: np.ndarray) -> np.ndarray:
            dblock = np.zeros((b * k, f), dtype=z.dtype)
            dblock += pooled_grad(g) @ w.T
            dblock *= mask
            return SegmentPlan(index, n).segment_sum(dblock)

        def vjp_weight(g: np.ndarray) -> np.ndarray:
            block = np.take(z, index, axis=0)
            block *= mask
            return block.T @ pooled_grad(g)

        def vjp_bias(g: np.ndarray) -> np.ndarray:
            return pooled_grad(g).sum(axis=0)

        return Tensor._from_op(
            out, (x, self.weight, self.bias), (vjp_x, vjp_weight, vjp_bias), "sort_pool_project"
        )
