"""K-fold cross-validated evaluation of SEAL link classifiers.

The paper reports single-split results; cross-validation is the natural
robustness extension for the small-sample regimes (BioKG) where one
split's AUC is noisy. Each fold trains a fresh model from the same
factory and evaluates on the held-out fold; the frozen
:class:`~repro.seal.results.CVResult` reports the per-fold metrics with
mean and standard deviation plus per-fold wall-times.

With ``checkpoint=CheckpointConfig(dir)`` the sweep is crash-safe at two
granularities: each fold trains under ``dir/fold_<k>`` (so a killed run
resumes mid-fold bit-identically), and a fold's finished evaluation is
persisted to ``dir/fold_<k>/fold_eval.npz`` so completed folds are
skipped entirely on restart.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro import obs
from repro.nn.module import Module
from repro.seal.checkpoint import CheckpointConfig
from repro.seal.dataset import SEALDataset
from repro.seal.evaluator import EvalResult, evaluate
from repro.seal.results import CVResult
from repro.seal.trainer import TrainConfig, train
from repro.utils.logging import get_logger
from repro.utils.rng import RngLike, derive, ensure_rng
from repro.utils.serialization import to_jsonable

__all__ = ["kfold_indices", "CVResult", "cross_validate"]

logger = get_logger("seal.cv")

_FOLD_EVAL_NAME = "fold_eval.npz"


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


def _save_fold_eval(path: Path, fold_eval: EvalResult, seconds: float) -> None:
    """Persist one completed fold atomically (single-file npz bundle)."""
    meta = to_jsonable(
        {
            "auc": fold_eval.auc,
            "ap": fold_eval.ap,
            "accuracy": fold_eval.accuracy,
            "auc_random_class": fold_eval.auc_random_class,
            "timings": dict(fold_eval.timings),
            "seconds": seconds,
        }
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                confusion=fold_eval.confusion,
                probs=fold_eval.probs,
                labels=fold_eval.labels,
                meta=np.array(json.dumps(meta)),
            )
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def _load_fold_eval(path: Path) -> "tuple[EvalResult, float]":
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        fold_eval = EvalResult(
            auc=float(meta["auc"]),
            ap=float(meta["ap"]),
            accuracy=float(meta["accuracy"]),
            auc_random_class=float(meta["auc_random_class"]),
            confusion=data["confusion"],
            probs=data["probs"],
            labels=data["labels"],
            timings=meta.get("timings", {}),
        )
    return fold_eval, float(meta.get("seconds", 0.0))


def cross_validate(
    model_factory: Callable[[int], Module],
    dataset: SEALDataset,
    config: TrainConfig,
    *,
    k: int = 5,
    rng: RngLike = 0,
    checkpoint: Optional[CheckpointConfig] = None,
) -> CVResult:
    """K-fold CV: train ``model_factory(fold)`` on k-1 folds, test on one.

    ``model_factory`` receives the fold number so each fold can use a
    distinct (but reproducible) initialization. ``checkpoint`` makes the
    sweep restartable: completed folds are skipped, the in-flight fold
    resumes from its last epoch bundle.
    """
    task = dataset.task
    folds = kfold_indices(
        task.num_links, k, labels=task.labels, rng=derive(rng, "cv-folds")
    )
    fold_results: List[EvalResult] = []
    fold_seconds: List[float] = []
    t_start = time.perf_counter()
    for fold, test_idx in enumerate(folds):
        fold_ckpt: Optional[CheckpointConfig] = None
        done_path: Optional[Path] = None
        if checkpoint is not None:
            fold_ckpt = checkpoint.for_subdir(f"fold_{fold}")
            done_path = Path(fold_ckpt.dir) / _FOLD_EVAL_NAME
            if checkpoint.resume and done_path.exists():
                fold_eval, elapsed = _load_fold_eval(done_path)
                obs.count("cv.folds_restored")
                logger.info(
                    "fold %d restored from checkpoint: auc=%.4f ap=%.4f",
                    fold, fold_eval.auc, fold_eval.ap,
                )
                fold_results.append(fold_eval)
                fold_seconds.append(elapsed)
                continue
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
                checkpoint=fold_ckpt,
            )
            fold_eval = evaluate(model, dataset, test_idx)
        elapsed = time.perf_counter() - t_fold
        obs.observe("cv.fold_seconds", elapsed)
        logger.info("fold %d auc=%.4f ap=%.4f (%.2fs)", fold, fold_eval.auc, fold_eval.ap, elapsed)
        if done_path is not None:
            _save_fold_eval(done_path, fold_eval, elapsed)
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
