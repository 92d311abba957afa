"""Held-out evaluation of SEAL link classifiers.

Produces class probabilities for a set of links and summarizes them with
the paper's two metrics (§V-A): one-vs-rest AUC and AP (mean per-class
precision), plus accuracy and the confusion matrix for diagnostics.

Returns a frozen :class:`~repro.seal.results.EvalResult`; evaluation is
traced under the ``eval`` phase when :mod:`repro.obs` is enabled.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.data.loader import DataLoader
from repro.metrics.classification import (
    accuracy,
    average_precision,
    confusion_matrix,
)
from repro.metrics.ranking import multiclass_auc
from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import no_grad
from repro.seal.dataset import SEALDataset
from repro.seal.results import EvalResult

__all__ = ["EvalResult", "predict_proba", "metric_suite", "evaluate"]


def predict_proba(
    model: Module,
    dataset: SEALDataset,
    indices: Sequence[int],
    *,
    batch_size: int = 64,
) -> np.ndarray:
    """Class probabilities ``(len(indices), C)`` in evaluation mode."""
    was_training = model.training
    model.eval()
    chunks = []
    try:
        with no_grad():
            for batch, _ in DataLoader(dataset, indices, batch_size):
                logits = model(batch)
                chunks.append(F.softmax(logits, axis=-1).data)
    finally:
        model.train(was_training)
    return np.concatenate(chunks, axis=0)


def metric_suite(labels: np.ndarray, probs: np.ndarray, num_classes: int) -> EvalResult:
    """The paper's metric suite over ``probs`` ``(M, C)`` and ``labels`` ``(M,)``.

    Macro one-vs-rest AUC, AP, accuracy, the random-class AUC and the
    confusion matrix; ``timings`` holds ``metrics_s``, the suite's own
    time. The offline evaluator and the prequential stream both build
    their results here, so equal inputs give equal results.
    """
    t0 = time.perf_counter()
    preds = probs.argmax(axis=1)
    return EvalResult(
        auc=multiclass_auc(labels, probs),
        ap=average_precision(labels, preds, num_classes),
        accuracy=accuracy(labels, preds),
        auc_random_class=multiclass_auc(labels, probs, rng=0),
        confusion=confusion_matrix(labels, preds, num_classes),
        probs=probs,
        labels=labels,
        timings={"metrics_s": time.perf_counter() - t0},
    )


def evaluate(
    model: Module,
    dataset: SEALDataset,
    indices: Sequence[int],
    *,
    batch_size: int = 64,
    num_workers: int = 0,  # only 0; kept for benchmarks/e2e/workloads.py until it drops it
) -> EvalResult:
    """Evaluate ``model`` on the links selected by ``indices``.

    The result's ``timings`` mapping splits the wall-clock cost into the
    model-forward part (``predict_s``) and the metric computation
    (``metrics_s``).
    """
    if num_workers != 0:
        raise ValueError(f"num_workers must be 0 (extraction is in-process), got {num_workers}")
    indices = np.asarray(indices, dtype=np.int64)
    with obs.trace("eval"):
        t0 = time.perf_counter()
        probs = predict_proba(model, dataset, indices, batch_size=batch_size)
        predict_s = time.perf_counter() - t0
        result = metric_suite(dataset.task.labels[indices], probs, dataset.task.num_classes)
        result = replace(
            result,
            timings={
                "predict_s": predict_s,
                **result.timings,
                "total_s": time.perf_counter() - t0,
            },
        )
    obs.count("seal.eval.calls")
    obs.count("seal.eval.links", float(len(indices)))
    return result
