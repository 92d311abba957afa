"""Loss functions for link classification.

Cross-entropy is the training loss throughout the reproduction (the SEAL
classifier head emits per-class logits), including Cora's two-class
link-existence task.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import log_softmax
from repro.nn.tensor import Tensor, as_tensor

__all__ = ["cross_entropy", "nll_loss"]


def nll_loss(log_probs: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood given per-row log-probabilities.

    Parameters
    ----------
    log_probs: ``(B, C)`` log-probabilities (e.g. from ``log_softmax``).
    targets: integer class ids ``(B,)``.
    weight: optional per-class weights ``(C,)`` for imbalanced data.
    """
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.shape[0] != log_probs.shape[0]:
        raise ValueError("targets must be 1-D and match the batch size")
    rows = np.arange(targets.shape[0])
    picked = log_probs[(rows, targets)]
    if weight is not None:
        w = np.asarray(weight, dtype=log_probs.data.dtype)[targets]
        return -(picked * Tensor(w)).sum() * (1.0 / max(float(w.sum()), 1e-12))
    return -picked.mean()


def cross_entropy(logits: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None) -> Tensor:
    """Softmax cross-entropy from raw logits (stable log-softmax inside)."""
    return nll_loss(log_softmax(as_tensor(logits), axis=-1), targets, weight)
