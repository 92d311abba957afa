"""Typed result objects returned by the SEAL pipeline's public API.

``evaluate`` → :class:`EvalResult`, ``cross_validate`` → :class:`CVResult`,
``train`` → :class:`TrainResult`. All three are dataclasses whose fields
are the stability contract downstream tooling (exporters, dashboards,
tuners) programs against; the two evaluation results are frozen so a
result can be shared, cached and compared without defensive copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "EvalResult",
    "CVResult",
    "TrainResult",
]


@dataclass(frozen=True)
class EvalResult:
    """Evaluation summary for one model on one link set.

    ``auc`` is the macro one-vs-rest AUC (the stable summary used for the
    reproduction's figures); ``auc_random_class`` follows the paper's
    literal protocol of scoring a single randomly chosen positive class.
    ``ap`` is the paper's mean-per-class-precision. ``timings`` holds the
    wall-clock cost of producing this result (``predict_s``,
    ``metrics_s``, ``total_s``).
    """

    auc: float
    ap: float
    accuracy: float
    auc_random_class: float
    confusion: np.ndarray
    probs: np.ndarray
    labels: np.ndarray
    timings: Mapping[str, float] = field(default_factory=dict)

    def summary(self) -> Dict[str, float]:
        """Scalar metrics only (JSON-friendly)."""
        return {
            "auc": self.auc,
            "ap": self.ap,
            "accuracy": self.accuracy,
            "auc_random_class": self.auc_random_class,
        }


@dataclass(frozen=True)
class CVResult:
    """Per-fold evaluations plus aggregate statistics.

    ``fold_seconds`` records each fold's train+eval wall-time; the
    ``timings`` mapping aggregates it (``total_s``, ``mean_fold_s``).
    """

    fold_results: Tuple[EvalResult, ...] = ()
    fold_seconds: Tuple[float, ...] = ()
    timings: Mapping[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> np.ndarray:
        """Per-fold values of ``auc`` | ``ap`` | ``accuracy``."""
        return np.array([getattr(r, name) for r in self.fold_results])

    def summary(self) -> Dict[str, float]:
        """Mean ± std of each scalar metric over folds."""
        out: Dict[str, float] = {}
        for name in ("auc", "ap", "accuracy"):
            vals = self.metric(name)
            out[f"{name}_mean"] = float(vals.mean())
            out[f"{name}_std"] = float(vals.std())
        out["folds"] = len(self.fold_results)
        return out


@dataclass
class TrainResult:
    """Per-epoch traces and phase wall-times collected during training.

    :func:`repro.seal.train` grows the traces epoch by epoch and returns
    the object.

    ``phase_seconds`` is the trainer's own wall-time breakdown
    (``forward`` / ``backward`` / ``optimizer`` / ``data`` / ``eval`` /
    ``total``), recorded whether or not :mod:`repro.obs` is enabled.
    """

    losses: List[float] = field(default_factory=list)
    eval_auc: List[float] = field(default_factory=list)
    eval_ap: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    best_epoch: Optional[int] = None  # 0-based; set when eval runs
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    epochs_run: int = 0
    #: optimizer steps skipped by the non-finite loss/gradient guard
    nonfinite_steps: int = 0
    #: set when the run was restored from a checkpoint (completed epochs)
    resumed_from_epoch: Optional[int] = None

    @property
    def final_auc(self) -> Optional[float]:
        return self.eval_auc[-1] if self.eval_auc else None

    @property
    def best_auc(self) -> Optional[float]:
        return max(self.eval_auc) if self.eval_auc else None

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None

    def summary(self) -> Dict[str, float]:
        """Scalar end-of-run summary (JSON-friendly)."""
        out: Dict[str, float] = {
            "epochs_run": self.epochs_run,
            "total_s": self.phase_seconds.get("total", sum(self.epoch_seconds)),
        }
        if self.losses:
            out["final_loss"] = self.losses[-1]
        if self.eval_auc:
            out["final_auc"] = self.eval_auc[-1]
            out["best_auc"] = float(max(self.eval_auc))
        if self.best_epoch is not None:
            out["best_epoch"] = self.best_epoch
        if self.nonfinite_steps:
            out["nonfinite_steps"] = self.nonfinite_steps
        if self.resumed_from_epoch is not None:
            out["resumed_from_epoch"] = self.resumed_from_epoch
        return out
