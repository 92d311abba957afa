"""Ranking metrics: ROC curves, AUC, and average precision.

Implemented from first principles (no sklearn in the environment):

* AUC uses the Mann–Whitney U statistic — the probability that a random
  positive outranks a random negative — with the standard midrank tie
  correction. This equals the trapezoidal area under the ROC curve.
* The paper's multi-class protocol (§V-A): for AUC, "randomly choose one
  class as the positive class and treat the rest as negative";
  :func:`multiclass_auc` follows that one-vs-rest construction and also
  reports the macro average over all classes (a stabler summary, used for
  the figures).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.dtype import FLOAT64

from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "roc_auc",
    "multiclass_auc",
]


def _validate_binary(y_true: np.ndarray, scores: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=FLOAT64)
    if y_true.shape != scores.shape or y_true.ndim != 1:
        raise ValueError("y_true and scores must be equal-length 1-D arrays")
    uniq = np.unique(y_true)
    if not np.isin(uniq, [0, 1]).all():
        raise ValueError("y_true must be binary (0/1)")
    return y_true.astype(np.int64), scores


def roc_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (tie-corrected).

    Returns 0.5 when one class is absent (the random-guess convention —
    keeps small evaluation slices well-defined).
    """
    y_true, scores = _validate_binary(y_true, scores)
    n_pos = int(y_true.sum())
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    # Midranks handle ties exactly.
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=FLOAT64)
    sorted_scores = scores[order]
    i = 0
    base = np.arange(1, len(scores) + 1, dtype=FLOAT64)
    # Assign midranks to tied runs.
    boundaries = np.nonzero(np.diff(sorted_scores))[0] + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(scores)]])
    for s, e in zip(starts, ends):
        ranks[order[s:e]] = 0.5 * (base[s] + base[e - 1])
    rank_sum = ranks[y_true == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def multiclass_auc(
    y_true: np.ndarray,
    probs: np.ndarray,
    *,
    positive_class: Optional[int] = None,
    rng: RngLike = None,
) -> float:
    """One-vs-rest AUC for multi-class link classification.

    Parameters
    ----------
    y_true: ``(B,)`` integer labels.
    probs: ``(B, C)`` class scores (probabilities or logits — AUC is
        invariant to monotone transforms per class).
    positive_class:
        When given, compute AUC for that class vs the rest (the paper's
        "randomly choose one class" protocol picks it at random — pass
        ``rng`` instead to do the same). When omitted and no ``rng`` is
        given, the macro average over all classes present is returned.
    rng: picks the positive class at random (paper protocol).
    """
    y_true = np.asarray(y_true)
    probs = np.asarray(probs, dtype=FLOAT64)
    if probs.ndim != 2 or probs.shape[0] != y_true.shape[0]:
        raise ValueError("probs must be (B, C) matching y_true")
    present = np.unique(y_true)
    if positive_class is None and rng is not None:
        positive_class = int(ensure_rng(rng).choice(present))
    if positive_class is not None:
        return roc_auc((y_true == positive_class).astype(int), probs[:, positive_class])
    aucs = [
        roc_auc((y_true == c).astype(int), probs[:, c])
        for c in present
        if 0 < (y_true == c).sum() < len(y_true)
    ]
    return float(np.mean(aucs)) if aucs else 0.5
