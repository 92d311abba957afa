"""K-fold cross-validated evaluation of SEAL link classifiers.

The paper reports single-split results; cross-validation is the natural
robustness extension for the small-sample regimes (BioKG) where one
split's AUC is noisy. Each fold trains a fresh model from the same
factory and evaluates on the held-out fold; the frozen
:class:`~repro.seal.results.CVResult` reports the per-fold metrics with
mean and standard deviation plus per-fold wall-times.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

import numpy as np

from repro import obs
from repro.nn.module import Module
from repro.seal.dataset import SEALDataset
from repro.seal.evaluator import EvalResult, evaluate
from repro.seal.results import CVResult
from repro.seal.trainer import TrainConfig, train
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive, ensure_rng

__all__ = ["kfold_indices", "CVResult", "cross_validate"]

logger = get_logger("seal.cv")


def kfold_indices(
    n: int,
    k: int,
    *,
    labels: Optional[np.ndarray] = None,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Shuffled fold membership: a list of ``k`` disjoint index arrays.

    With ``labels`` given the folds are stratified (each class spread
    round-robin over folds after a per-class shuffle).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError("need at least k examples")
    gen = ensure_rng(rng)
    folds: List[List[int]] = [[] for _ in range(k)]
    if labels is None:
        perm = gen.permutation(n)
        for pos, idx in enumerate(perm):
            folds[pos % k].append(int(idx))
    else:
        labels = np.asarray(labels)
        if labels.shape != (n,):
            raise ValueError("labels must have length n")
        offset = 0
        for c in np.unique(labels):
            members = gen.permutation(np.nonzero(labels == c)[0])
            for pos, idx in enumerate(members):
                folds[(pos + offset) % k].append(int(idx))
            offset += len(members)  # stagger so small classes spread out
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def cross_validate(
    model_factory: Callable[[int], Module],
    dataset: SEALDataset,
    config: TrainConfig,
    *,
    k: int = 5,
    rng: RngLike = 0,
) -> CVResult:
    """K-fold CV: train ``model_factory(fold)`` on k-1 folds, test on one.

    ``model_factory`` receives the fold number so each fold can use a
    distinct (but reproducible) initialization.
    """
    task = dataset.task
    folds = kfold_indices(
        task.num_links, k, labels=task.labels, rng=derive(rng, "cv-folds")
    )
    fold_results: List[EvalResult] = []
    fold_seconds: List[float] = []
    t_start = time.perf_counter()
    for fold, test_idx in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != fold])
        model = model_factory(fold)
        t_fold = time.perf_counter()
        with obs.trace("cv-fold"):
            train(
                model,
                dataset,
                train_idx,
                config,
                rng=derive(rng, "cv-train", str(fold)),
            )
            fold_eval = evaluate(model, dataset, test_idx)
        elapsed = time.perf_counter() - t_fold
        obs.observe("cv.fold_seconds", elapsed)
        logger.info("fold %d auc=%.4f ap=%.4f (%.2fs)", fold, fold_eval.auc, fold_eval.ap, elapsed)
        fold_results.append(fold_eval)
        fold_seconds.append(elapsed)
    total = time.perf_counter() - t_start
    return CVResult(
        fold_results=tuple(fold_results),
        fold_seconds=tuple(fold_seconds),
        timings={
            "total_s": total,
            "mean_fold_s": float(np.mean(fold_seconds)) if fold_seconds else 0.0,
        },
    )
