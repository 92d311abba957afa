"""Trainer and evaluator behaviour on a small learnable task."""

import logging

import numpy as np
import pytest

from repro.datasets.primekg import load_primekg_like
from repro.models import AMDGCNN
from repro.seal.dataset import SEALDataset, train_test_split_indices
from repro.seal.evaluator import evaluate, predict_proba
from repro.seal.trainer import TrainConfig, train
from repro.data import warm


@pytest.fixture(scope="module")
def small_setup():
    task = load_primekg_like(scale=0.12, num_targets=60, rng=0)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.3, labels=task.labels, rng=0)
    warm(ds)
    return task, ds, tr, te


def small_model(ds, task, seed=1):
    return AMDGCNN(
        ds.feature_width,
        task.num_classes,
        edge_dim=task.edge_attr_dim,
        heads=2,
        hidden_dim=16,
        num_conv_layers=2,
        sort_k=10,
        dropout=0.0,
        rng=seed,
    )


class TestTrain:
    def test_loss_decreases(self, small_setup):
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        hist = train(model, ds, tr, TrainConfig(epochs=6, batch_size=8, lr=3e-3), rng=0)
        assert len(hist.losses) == 6
        assert hist.losses[-1] < hist.losses[0]

    def test_eval_trace_recorded(self, small_setup):
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        hist = train(
            model, ds, tr, TrainConfig(epochs=3, batch_size=8, lr=3e-3),
            eval_indices=te, rng=0,
        )
        assert len(hist.eval_auc) == 3
        assert len(hist.eval_ap) == 3
        assert hist.final_auc == hist.eval_auc[-1]
        assert len(hist.epoch_seconds) == 3

    def test_epoch_progress_logged_at_info(self, small_setup):
        # The ``repro`` logger does not propagate, so listen on it directly.
        task, ds, tr, te = small_setup
        records = []
        handler = logging.Handler(logging.DEBUG)
        handler.emit = records.append
        logger = logging.getLogger("repro.seal.trainer")
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            hist = train(
                small_model(ds, task), ds, tr,
                TrainConfig(epochs=2, batch_size=8, lr=1e-3), rng=0,
            )
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert [r.levelno for r in records] == [logging.INFO, logging.INFO]
        assert [r.getMessage() for r in records] == [
            f"epoch {e + 1} loss={hist.losses[e]:.4f}" for e in range(2)
        ]

    def test_deterministic_given_seeds(self, small_setup):
        task, ds, tr, te = small_setup
        h1 = train(small_model(ds, task, seed=3), ds, tr,
                   TrainConfig(epochs=2, batch_size=8, lr=1e-3), rng=7)
        h2 = train(small_model(ds, task, seed=3), ds, tr,
                   TrainConfig(epochs=2, batch_size=8, lr=1e-3), rng=7)
        np.testing.assert_allclose(h1.losses, h2.losses)

    def test_invalid_epochs(self, small_setup):
        task, ds, tr, te = small_setup
        with pytest.raises(ValueError):
            train(small_model(ds, task), ds, tr, TrainConfig(epochs=0), rng=0)

    def test_only_zero_workers_accepted(self, small_setup):
        # Extraction is always in-process; the keywords survive only at 0.
        task, ds, tr, te = small_setup
        assert TrainConfig(num_workers=0).num_workers == 0
        with pytest.raises(ValueError, match="num_workers"):
            TrainConfig(num_workers=1)
        with pytest.raises(ValueError, match="num_workers"):
            evaluate(small_model(ds, task), ds, te, num_workers=1)


class TestEvaluate:
    def test_negative_index_raises_on_a_warm_store(self, small_setup):
        # With every link stored, index -1 used to alias the last link.
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        with pytest.raises(IndexError, match="link index -1 "):
            evaluate(model, ds, np.array([-1, 0]))
        with pytest.raises(IndexError, match=f"link index {task.num_links} "):
            train(model, ds, np.array([0, task.num_links]), TrainConfig(epochs=1), rng=0)

    def test_probs_shape_and_normalization(self, small_setup):
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        probs = predict_proba(model, ds, te, batch_size=8)
        assert probs.shape == (len(te), task.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_probs_do_not_depend_on_batch_size(self, small_setup):
        """Each link's probabilities are the same bits at any batch size."""
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        idx = np.arange(task.num_links)
        reference = predict_proba(model, ds, idx, batch_size=64)
        for batch_size in (7, 16):
            np.testing.assert_array_equal(
                predict_proba(model, ds, idx, batch_size=batch_size), reference
            )

    def test_eval_restores_training_mode(self, small_setup):
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        model.train()
        evaluate(model, ds, te)
        assert model.training
        model.eval()
        evaluate(model, ds, te)
        assert not model.training

    def test_result_fields(self, small_setup):
        task, ds, tr, te = small_setup
        model = small_model(ds, task)
        res = evaluate(model, ds, te)
        assert 0.0 <= res.auc <= 1.0
        assert 0.0 <= res.ap <= 1.0
        assert 0.0 <= res.accuracy <= 1.0
        assert res.confusion.shape == (task.num_classes, task.num_classes)
        assert res.confusion.sum() == len(te)
        summary = res.summary()
        assert set(summary) == {"auc", "ap", "accuracy", "auc_random_class"}
