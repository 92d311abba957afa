"""Gather / scatter / segment operations for edge-list message passing.

GNN layers in this library operate on a graph expressed as an edge list
``edge_index`` of shape ``(2, E)``. A message-passing step is:

1. ``gather`` the source-node features onto the edges,
2. transform/weight the per-edge messages,
3. ``segment_sum`` (or mean) the messages onto the destination nodes.

The backward passes are the duals: the gradient of ``segment_sum`` is a
``gather``, and the gradient of ``gather`` is a scatter-add — both
vectorized (no Python-level loops over edges).

``segment_softmax`` implements the per-destination normalization of GAT
attention coefficients with a numerically stable per-segment max shift.

Every scatter-style reduction runs through a
:class:`~repro.nn.kernels.SegmentPlan` over its index array: contiguous
kernels (bincount / CSR matmul / sorted ``reduceat``, see
:mod:`repro.nn.kernels`) bit-identical to an unbuffered, in-order
scatter (the reference ops in ``tests/oracles.py``).
Callers that reuse an index pass its precomputed plan as ``plan=``; an op
called without one builds a one-shot plan itself. ``gather`` only needs
its plan in the backward pass, so it builds it lazily there and no-grad
forwards pay nothing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import FLOAT64
from repro.nn.kernels import SegmentPlan
from repro.nn.tensor import Tensor, as_tensor

__all__ = [
    "gather",
    "segment_sum",
    "segment_mean",
    "segment_softmax",
]


def _check_index(index: np.ndarray) -> np.ndarray:
    index = np.asarray(index)
    if index.dtype.kind not in "iu":
        raise TypeError("index must be an integer array")
    if index.ndim != 1:
        raise ValueError("index must be 1-D")
    return index


def _plan(
    plan: Optional[SegmentPlan], index: np.ndarray, num_segments: int
) -> SegmentPlan:
    """``plan`` checked against ``(index, num_segments)``, or a fresh one."""
    if plan is None:
        return SegmentPlan(index, num_segments)
    plan.check(index, num_segments)
    return plan


def gather(
    x: Tensor, index: np.ndarray, *, plan: Optional[SegmentPlan] = None
) -> Tensor:
    """Select rows ``x[index]`` (differentiable; dual of scatter_add).

    Parameters
    ----------
    x: Tensor of shape ``(N, ...)``.
    index: integer array of shape ``(M,)`` with values in ``[0, N)``.
    plan: optional :class:`SegmentPlan` over ``(index, N)`` for the
        backward scatter-add; built on first backward when omitted.

    Returns
    -------
    Tensor of shape ``(M, ...)``.
    """
    x = as_tensor(x)
    index = _check_index(index)
    # np.take's contiguous row-copy path is several times faster than
    # fancy indexing for 2-D+ operands; identical elements either way.
    out = np.take(x.data, index, axis=0)
    shape = x.data.shape
    if plan is not None:
        plan.check(index, shape[0])

    def vjp(g: np.ndarray) -> np.ndarray:
        return _plan(plan, index, shape[0]).segment_sum(g)

    return Tensor._from_op(out, (x,), (vjp,), "gather")


def segment_sum(
    x: Tensor,
    index: np.ndarray,
    num_segments: int,
    *,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Segmented sum: aggregate per-edge values onto nodes.

    Parameters
    ----------
    x: Tensor of shape ``(E, ...)`` — one row per edge.
    index: destination segment of each row, shape ``(E,)``.
    num_segments: number of output rows ``N``.
    plan: optional :class:`SegmentPlan` over ``(index, N)``.

    Returns
    -------
    Tensor of shape ``(N, ...)``; empty segments are zero.
    """
    x = as_tensor(x)
    index = _check_index(index)
    if len(index) != x.data.shape[0]:
        raise ValueError("index length must match the leading dim of x")
    if index.size and (index.min() < 0 or index.max() >= num_segments):
        raise ValueError("index out of range for num_segments")
    out = _plan(plan, index, num_segments).segment_sum(x.data)

    def vjp(g: np.ndarray) -> np.ndarray:
        return np.take(g, index, axis=0)

    return Tensor._from_op(out, (x,), (vjp,), "segment_sum")


def segment_mean(
    x: Tensor,
    index: np.ndarray,
    num_segments: int,
    *,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Segmented mean; empty segments yield zero (not NaN)."""
    plan = _plan(plan, _check_index(index), num_segments)
    sums = segment_sum(x, index, num_segments, plan=plan)
    counts = np.maximum(plan.counts.astype(FLOAT64), 1.0)
    counts = counts.reshape((num_segments,) + (1,) * (sums.ndim - 1))
    return sums * Tensor(1.0 / counts)


def segment_softmax(
    logits: Tensor,
    index: np.ndarray,
    num_segments: int,
    *,
    plan: Optional[SegmentPlan] = None,
) -> Tensor:
    """Softmax normalized within each segment (GAT attention normalizer).

    ``out[i] = exp(logits[i] - m[s_i]) / sum_{j in segment s_i} exp(...)``
    where ``m[s]`` is the per-segment max (stability shift).

    Parameters
    ----------
    logits: Tensor of shape ``(E,)`` or ``(E, H)`` (multi-head).
    index: segment (destination node) of each row, shape ``(E,)``.
    num_segments: number of segments ``N``.
    plan: optional :class:`SegmentPlan` over ``(index, N)`` — the max
        shift, the normalizer and the backward reduction all reuse it
        (built once here when omitted).

    Returns
    -------
    Tensor with the shape of ``logits``; rows within a segment sum to 1
    along the edge dimension for every head.
    """
    logits = as_tensor(logits)
    index = _check_index(index)
    data = logits.data
    plan = _plan(plan, index, num_segments)
    # Fused sorted-domain kernel (bit-identical — see SegmentPlan).
    out = plan.segment_softmax(data)

    def vjp(g: np.ndarray) -> np.ndarray:
        # d softmax: out * (g - sum_segment(g * out))
        seg_dot = plan.segment_sum(g * out)
        return out * (g - seg_dot[index])

    return Tensor._from_op(out, (logits,), (vjp,), "segment_softmax")
