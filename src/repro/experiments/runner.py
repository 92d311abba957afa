"""Generic train-and-evaluate runner shared by every experiment driver.

Handles dataset loading/caching (subgraph extraction is the dominant
cost, so one :class:`~repro.seal.SEALDataset` per dataset+seed+scale is
shared across the sweeps), split construction, model building, training
with per-epoch evaluation, and result bundling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.loader import warm
from repro.datasets.registry import load_dataset
from repro.experiments.config import (
    ModelHyperparams,
    build_model,
    train_config_for,
)
from repro.seal.dataset import SEALDataset, train_test_split_indices
from repro.seal.evaluator import EvalResult, evaluate
from repro.seal.trainer import TrainResult, train
from repro.utils.logging import get_logger
from repro.utils.rng import derive

__all__ = ["RunResult", "ExperimentRunner"]

logger = get_logger("experiments.runner")

#: held-out fraction of every dataset's links (stratified by class)
TEST_FRACTION = 0.25


@dataclass
class RunResult:
    """One (dataset, model, hyperparams) training run."""

    dataset: str
    model: str
    history: TrainResult
    final: EvalResult
    train_size: int
    test_size: int

    @property
    def auc(self) -> float:
        return self.final.auc

    @property
    def ap(self) -> float:
        return self.final.ap


@dataclass
class _DatasetBundle:
    dataset: SEALDataset
    train_idx: np.ndarray
    test_idx: np.ndarray


class ExperimentRunner:
    """Caches prepared datasets and runs training jobs against them.

    Parameters
    ----------
    scale: node-count multiplier passed to every dataset loader. The
        figure/table regenerations default to a CI-friendly scale; pass
        ``1.0`` (or more) for full-size runs.
    seed: master seed — datasets, splits, model init and shuffling all
        derive their streams from it.
    """

    def __init__(self, scale: float = 0.5, seed: int = 0):
        self.scale = scale
        self.seed = seed
        self._bundles: Dict[Tuple[str, float], _DatasetBundle] = {}

    def bundle(self, dataset_name: str, num_targets: Optional[int] = None) -> _DatasetBundle:
        """Prepared dataset + split for ``dataset_name`` (cached)."""
        key = (dataset_name, self.scale if num_targets is None else (self.scale, num_targets))
        if key not in self._bundles:
            kwargs = {} if num_targets is None else {"num_targets": num_targets}
            task = load_dataset(dataset_name, scale=self.scale, rng=self.seed, **kwargs)
            ds = SEALDataset(task, rng=self.seed)
            tr, te = train_test_split_indices(
                task.num_links,
                TEST_FRACTION,
                labels=task.labels,
                rng=derive(self.seed, "split", dataset_name),
            )
            logger.info(
                "prepared %s: %d nodes, %d links (%d train / %d test)",
                dataset_name,
                task.graph.num_nodes,
                task.num_links,
                len(tr),
                len(te),
            )
            warm(ds)
            self._bundles[key] = _DatasetBundle(ds, tr, te)
        return self._bundles[key]

    def run(
        self,
        dataset_name: str,
        model_name: str,
        hparams: ModelHyperparams,
        *,
        epochs: Optional[int] = None,
        train_fraction: float = 1.0,
        num_targets: Optional[int] = None,
        eval_each_epoch: bool = True,
    ) -> RunResult:
        """Train one model and evaluate on the held-out links.

        ``train_fraction`` subsamples the training split (the Figs. 7–9
        data-efficiency sweep); the test split never changes.
        """
        if not 0 < train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")
        b = self.bundle(dataset_name, num_targets)
        task = b.dataset.task
        tr = b.train_idx
        if train_fraction < 1.0:
            gen = derive(self.seed, "subsample", dataset_name, f"{train_fraction:.4f}")
            n_keep = max(task.num_classes, int(round(len(tr) * train_fraction)))
            tr = np.sort(gen.choice(tr, size=min(n_keep, len(tr)), replace=False))

        model = build_model(
            model_name,
            b.dataset.feature_width,
            task.num_classes,
            task.edge_attr_dim,
            hparams,
            rng=derive(self.seed, "init", dataset_name, model_name),
        )
        history = train(
            model,
            b.dataset,
            tr,
            train_config_for(hparams, epochs),
            eval_indices=b.test_idx if eval_each_epoch else None,
            rng=derive(self.seed, "train", dataset_name, model_name),
        )
        final = evaluate(model, b.dataset, b.test_idx)
        return RunResult(
            dataset=dataset_name,
            model=model_name,
            history=history,
            final=final,
            train_size=len(tr),
            test_size=len(b.test_idx),
        )
