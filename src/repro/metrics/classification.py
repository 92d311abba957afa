"""Thresholded classification metrics: accuracy, precision, AP.

The paper's **AP** metric (§V-A) is the *mean of per-class precisions*
under one-vs-rest: each class in turn is treated as positive and its
precision ``TP/(TP+FP)`` computed from the argmax predictions; AP is the
unweighted mean over classes. :func:`average_precision` implements exactly
that definition (it is not the PR-curve AP — that lives in
:mod:`repro.metrics.ranking`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import FLOAT64

__all__ = [
    "accuracy",
    "confusion_matrix",
    "precision_per_class",
    "average_precision",
]


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> tuple:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError("y_true and y_pred must be equal-length 1-D arrays")
    return y_true.astype(np.int64), y_pred.astype(np.int64)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact matches."""
    y_true, y_pred = _validate(y_true, y_pred)
    if len(y_true) == 0:
        return 0.0
    return float((y_true == y_pred).mean())


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, num_classes: Optional[int] = None) -> np.ndarray:
    """Counts matrix ``M[t, p]`` = examples of true class t predicted p."""
    y_true, y_pred = _validate(y_true, y_pred)
    if num_classes is None:
        num_classes = int(max(y_true.max(initial=-1), y_pred.max(initial=-1))) + 1
    m = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(m, (y_true, y_pred), 1)
    return m


def precision_per_class(y_true: np.ndarray, y_pred: np.ndarray, num_classes: Optional[int] = None) -> np.ndarray:
    """``TP/(TP+FP)`` per class; classes never predicted get 0."""
    m = confusion_matrix(y_true, y_pred, num_classes)
    predicted = m.sum(axis=0).astype(FLOAT64)
    tp = np.diag(m).astype(FLOAT64)
    return np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)


def average_precision(y_true: np.ndarray, y_pred: np.ndarray, num_classes: Optional[int] = None) -> float:
    """The paper's AP: mean one-vs-rest precision over classes *present*.

    Classes that appear in neither ``y_true`` nor ``y_pred`` are excluded
    from the mean (they carry no information about the classifier).
    """
    y_true, y_pred = _validate(y_true, y_pred)
    m = confusion_matrix(y_true, y_pred, num_classes)
    involved = (m.sum(axis=0) + m.sum(axis=1)) > 0
    if not involved.any():
        return 0.0
    prec = precision_per_class(y_true, y_pred, m.shape[0])
    return float(prec[involved].mean())
