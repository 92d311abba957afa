"""Typed result API: EvalResult/CVResult/TrainResult, progress lines, cache_info.

Covers the API-redesign contract: frozen, attribute-only result
dataclasses, the trainer's per-epoch progress lines and ``verbose=``,
the dataset cache counters, and the determinism guarantee that
instrumentation must not perturb training.
"""

import contextlib
import dataclasses
import logging

import numpy as np
import pytest

import repro.obs as obs
from repro.datasets.primekg import load_primekg_like
from repro.models import AMDGCNN
from repro.seal import (
    CacheInfo, CheckpointConfig, CVResult, EvalResult, TrainResult, cross_validate,
)
from repro.seal.dataset import SEALDataset, train_test_split_indices
from repro.seal.evaluator import evaluate
from repro.seal.trainer import TrainConfig, train
from repro.data import DataLoader, warm


@pytest.fixture(scope="module")
def setup():
    task = load_primekg_like(scale=0.12, num_targets=60, rng=0)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.3, labels=task.labels, rng=0)
    warm(ds)
    return task, ds, tr, te


@contextlib.contextmanager
def trainer_lines():
    """The messages the ``repro.seal.trainer`` logger emits at INFO."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("repro.seal.trainer")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


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


class TestEvalResultApi:
    @pytest.fixture(scope="class")
    def result(self, setup):
        task, ds, tr, te = setup
        return evaluate(small_model(ds, task), ds, te)

    def test_is_frozen(self, result):
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.auc = 1.0

    def test_has_timings(self, result):
        assert result.timings["total_s"] >= result.timings["predict_s"] >= 0.0
        assert "metrics_s" in result.timings

    def test_attribute_access_does_not_warn(self, result, recwarn):
        _ = result.auc, result.ap, result.summary()
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]


class TestTrainResultApi:
    def test_returns_train_result_with_phases(self, setup):
        task, ds, tr, te = setup
        res = train(
            small_model(ds, task), ds, tr,
            TrainConfig(epochs=2, batch_size=8, lr=1e-3), eval_indices=te, rng=0,
        )
        assert isinstance(res, TrainResult)
        assert res.epochs_run == 2
        for key in ("forward", "backward", "optimizer", "data", "eval", "total"):
            assert res.phase_seconds[key] >= 0.0
        assert res.phase_seconds["total"] == pytest.approx(
            sum(res.epoch_seconds) + res.phase_seconds["eval"]
        )
        assert res.summary()["final_auc"] == res.final_auc

    @pytest.fixture(scope="class")
    def logged_run(self, setup):
        task, ds, tr, te = setup
        with trainer_lines() as lines:
            res = train(
                small_model(ds, task), ds, tr,
                TrainConfig(epochs=3, batch_size=8, lr=1e-3), eval_indices=te, rng=0,
            )
        return res, lines

    def test_verbose_logs_epoch_lines(self, logged_run):
        res, lines = logged_run
        assert lines[:-1] == [
            f"epoch {e + 1} loss={res.losses[e]:.4f} "
            f"auc={res.eval_auc[e]:.4f} ap={res.eval_ap[e]:.4f}"
            for e in range(3)
        ]

    def test_verbose_reports_best_epoch_last(self, logged_run):
        res, lines = logged_run
        best = res.best_epoch
        assert best == int(np.argmax(res.eval_auc))
        assert lines[-1] == f"done: best epoch {best + 1} auc={res.eval_auc[best]:.4f}"

    def test_verbose_true_logs_as_default(self, setup, logged_run):
        task, ds, tr, te = setup
        with trainer_lines() as lines:
            train(
                small_model(ds, task), ds, tr,
                TrainConfig(epochs=3, batch_size=8, lr=1e-3), eval_indices=te,
                rng=0, verbose=True,
            )
        assert lines == logged_run[1]

    def test_resumed_run_logs_only_new_epochs(self, setup, tmp_path):
        task, ds, tr, te = setup
        checkpoint = CheckpointConfig(dir=tmp_path)
        train(
            small_model(ds, task), ds, tr, TrainConfig(epochs=1, batch_size=8, lr=1e-3),
            rng=0, verbose=False, checkpoint=checkpoint,
        )
        with trainer_lines() as lines:
            res = train(
                small_model(ds, task), ds, tr,
                TrainConfig(epochs=2, batch_size=8, lr=1e-3),
                rng=0, checkpoint=checkpoint,
            )
        assert res.resumed_from_epoch == 1
        assert lines[0].startswith("resumed from ")
        assert lines[0].endswith(": 1/2 epochs already complete")
        assert lines[1:] == [f"epoch 2 loss={res.losses[1]:.4f}"]

    def test_verbose_logs_loss_only_without_eval(self, setup):
        task, ds, tr, te = setup
        with trainer_lines() as lines:
            res = train(
                small_model(ds, task), ds, tr,
                TrainConfig(epochs=1, batch_size=8, lr=1e-3), rng=0,
            )
        assert lines == [f"epoch 1 loss={res.losses[0]:.4f}"]

    def test_verbose_false_silent(self, setup, capsys):
        task, ds, tr, te = setup
        with trainer_lines() as lines:
            train(
                small_model(ds, task), ds, tr,
                TrainConfig(epochs=1, batch_size=8, lr=1e-3), eval_indices=te,
                rng=0, verbose=False,
            )
        assert capsys.readouterr().out == ""
        assert lines == []


class TestCVResultApi:
    @pytest.fixture(scope="class")
    def cv_result(self, setup):
        task, ds, tr, te = setup

        def factory(fold):
            return small_model(ds, task, seed=fold)

        return cross_validate(
            factory, ds, TrainConfig(epochs=1, batch_size=8, lr=1e-3), k=3, rng=0
        )

    def test_typed_and_frozen(self, cv_result):
        assert isinstance(cv_result, CVResult)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cv_result.fold_results = ()

    def test_fold_timings(self, cv_result):
        assert len(cv_result.fold_seconds) == 3
        assert cv_result.timings["total_s"] >= sum(cv_result.fold_seconds) * 0.5
        assert cv_result.timings["mean_fold_s"] == pytest.approx(
            float(np.mean(cv_result.fold_seconds))
        )

    def test_summary_back_compat(self, cv_result):
        summary = cv_result.summary()
        assert summary["folds"] == 3
        assert 0.0 <= summary["auc_mean"] <= 1.0
        assert cv_result.metric("ap").shape == (3,)


class TestCacheInfo:
    def test_counts_hits_and_misses(self):
        task = load_primekg_like(scale=0.12, num_targets=20, rng=0)
        ds = SEALDataset(task, rng=0)
        assert ds.cache_info() == CacheInfo(hits=0, misses=0, size=0, capacity=20)
        ds.ensure_many([0])
        ds.ensure_many([0])
        info = ds.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_extraction_order_independent(self):
        """The shuffled-loader bug: lazily-extracted subgraphs must not depend
        on visitation order (fresh rng each epoch used to perturb them)."""
        task = load_primekg_like(scale=0.12, num_targets=20, rng=0)
        forward = SEALDataset(task, rng=0)
        backward = SEALDataset(task, rng=0)
        for i in range(20):
            forward.ensure_many([i])
        for i in reversed(range(20)):
            backward.ensure_many([i])
        for i in range(20):
            b1, _ = forward.batch([i])
            b2, _ = backward.batch([i])
            np.testing.assert_array_equal(b1.edge_index, b2.edge_index)
            np.testing.assert_array_equal(b1.node_features, b2.node_features)

    def test_no_reextraction_across_shuffled_epochs(self):
        task = load_primekg_like(scale=0.12, num_targets=20, rng=0)
        ds = SEALDataset(task, rng=0)
        for epoch in range(3):  # fresh rng each epoch, like a real train loop
            for _ in DataLoader(ds, np.arange(20), 6, rng=np.random.default_rng(epoch)):
                pass
        assert ds.cache_info().misses == 20  # extracted exactly once each


class TestInstrumentationDeterminism:
    def test_identical_loss_curves_with_and_without_obs(self, setup):
        """Enabling repro.obs must not change a single bit of training."""
        task, ds, tr, te = setup
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3)
        plain = train(small_model(ds, task, seed=3), ds, tr, cfg,
                      eval_indices=te, rng=7, verbose=False)
        with obs.capture():
            instrumented = train(small_model(ds, task, seed=3), ds, tr, cfg,
                                 eval_indices=te, rng=7, verbose=False)
        assert plain.losses == instrumented.losses  # bit-identical, no tolerance
        assert plain.eval_auc == instrumented.eval_auc
        assert plain.eval_ap == instrumented.eval_ap

    def test_obs_records_training_phases(self, setup):
        task, ds, tr, te = setup
        with obs.capture() as reg:
            train(small_model(ds, task), ds, tr,
                  TrainConfig(epochs=1, batch_size=8, lr=1e-3),
                  eval_indices=te, rng=0, verbose=False)
        leaves = reg.leaf_totals()
        for phase in ("forward", "backward", "optimizer", "eval", "collate"):
            assert phase in leaves, phase
        assert reg.counters["seal.cache.hits"] > 0  # dataset was pre-prepared
