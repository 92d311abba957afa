"""Evaluation metrics: AUC/ROC (ranking) and precision-style (thresholded)."""

from repro.metrics.classification import (
    accuracy,
    average_precision,
    confusion_matrix,
    precision_per_class,
)
from repro.metrics.ranking import (
    multiclass_auc,
    roc_auc,
)

__all__ = [
    "roc_auc",
    "multiclass_auc",
    "accuracy",
    "confusion_matrix",
    "precision_per_class",
    "average_precision",
]
