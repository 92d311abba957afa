"""restore_best checkpointing in the trainer."""

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.seal import (
    SEALDataset,
    TrainConfig,
    evaluate,
    train,
    train_test_split_indices,
)
from repro.data import warm


@pytest.fixture(scope="module")
def setup():
    task = load_primekg_like(scale=0.12, num_targets=60, rng=0)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.3, labels=task.labels, rng=0)
    warm(ds)
    return task, ds, tr, te


def make_model(ds, task):
    return AMDGCNN(
        ds.feature_width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=16, num_conv_layers=2, sort_k=10, dropout=0.0, rng=1,
    )


class TestRestoreBest:
    def test_final_model_matches_best_epoch(self, setup):
        task, ds, tr, te = setup
        model = make_model(ds, task)
        hist = train(
            model, ds, tr,
            TrainConfig(epochs=5, batch_size=8, lr=3e-3, restore_best=True),
            eval_indices=te, rng=0,
        )
        assert hist.best_epoch is not None
        assert hist.best_auc == max(hist.eval_auc)
        # Evaluating the restored model reproduces the best epoch's AUC.
        res = evaluate(model, ds, te)
        assert res.auc == pytest.approx(hist.best_auc, abs=1e-12)

    def test_requires_eval_indices(self, setup):
        task, ds, tr, te = setup
        model = make_model(ds, task)
        with pytest.raises(ValueError):
            train(
                model, ds, tr,
                TrainConfig(epochs=2, restore_best=True),
                rng=0,
            )

    def test_best_epoch_tracked_without_restore(self, setup):
        task, ds, tr, te = setup
        model = make_model(ds, task)
        hist = train(
            model, ds, tr,
            TrainConfig(epochs=3, batch_size=8, lr=3e-3),
            eval_indices=te, rng=0,
        )
        assert hist.best_epoch == int(np.argmax(hist.eval_auc))
