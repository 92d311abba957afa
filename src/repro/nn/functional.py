"""Functional neural-network operations composed from autograd primitives.

Mirrors the subset of ``torch.nn.functional`` the AM-DGCNN stack needs:
activations, (log-)softmax, dropout, one-hot encoding and the affine map. All
functions take/return :class:`~repro.nn.tensor.Tensor` and are covered by
finite-difference gradient tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import get_compute_dtype
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "relu",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "one_hot",
    "linear",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, ``max(x, 0)``."""
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent (DGCNN uses tanh after each graph convolution)."""
    return as_tensor(x).tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    data = x.data
    shifted = data - data.max(axis=axis, keepdims=True)
    expd = np.exp(shifted)
    out = expd / expd.sum(axis=axis, keepdims=True)

    def vjp(g: np.ndarray) -> np.ndarray:
        dot = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - dot)

    return Tensor._from_op(out, (x,), (vjp,), "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    data = x.data
    m = data.max(axis=axis, keepdims=True)
    shifted = data - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def vjp(g: np.ndarray) -> np.ndarray:
        return g - soft * g.sum(axis=axis, keepdims=True)

    return Tensor._from_op(out, (x,), (vjp,), "log_softmax")


def dropout(
    x: Tensor,
    p: float = 0.5,
    *,
    training: bool = True,
    rng: RngLike = None,
) -> Tensor:
    """Inverted dropout: zero each element w.p. ``p``; scale kept by 1/(1-p).

    Identity when ``training`` is False or ``p == 0``. The mask is drawn
    from ``rng`` so training runs are reproducible.
    """
    x = as_tensor(x)
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    gen = ensure_rng(rng)
    keep = gen.random(x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    # Cast the boolean mask before scaling: bool * float would make a
    # float64 mask and silently promote a float32 activation.
    mask = keep.astype(x.data.dtype) * scale
    out = x.data * mask
    return Tensor._from_op(out, (x,), (lambda g: g * mask,), "dropout")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding (plain ndarray — feature-building helper).

    Out-of-range labels raise; a label of ``-1`` encodes "no class" and
    produces an all-zero row (used for null DRNL labels).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    out = np.zeros((labels.shape[0], num_classes), dtype=get_compute_dtype())
    valid = labels >= 0
    if (labels[valid] >= num_classes).any():
        raise ValueError("label exceeds num_classes")
    out[np.nonzero(valid)[0], labels[valid]] = 1.0
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` (weight stored input×output)."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out
