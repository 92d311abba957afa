"""Evaluation metrics: AUC/ROC (ranking) and precision-style (thresholded)."""

from repro.metrics.classification import (
    accuracy,
    average_precision,
    classification_report,
    confusion_matrix,
    f1_per_class,
    precision_per_class,
    recall_per_class,
)
from repro.metrics.ranking import (
    average_precision_curve,
    multiclass_auc,
    roc_auc,
    roc_curve,
)

__all__ = [
    "roc_curve",
    "roc_auc",
    "multiclass_auc",
    "average_precision_curve",
    "accuracy",
    "confusion_matrix",
    "precision_per_class",
    "recall_per_class",
    "average_precision",
    "f1_per_class",
    "classification_report",
]
