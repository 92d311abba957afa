"""Experiment configuration, runner, and report rendering."""

import numpy as np
import pytest

from repro.experiments.config import (
    DEFAULT_HPARAMS,
    MODEL_NAMES,
    ModelHyperparams,
    build_model,
    hyperparams_for,
    train_config_for,
)
from repro.experiments.report import PAPER_TABLE3, render_series, render_table
from repro.experiments.runner import ExperimentRunner
from repro.models import AMDGCNN, VanillaDGCNN


class TestConfig:
    def test_hyperparams_resolution(self):
        assert hyperparams_for("wordnet", "am_dgcnn", "default") == DEFAULT_HPARAMS
        tuned = hyperparams_for("wordnet", "am_dgcnn", "tuned")
        assert isinstance(tuned, ModelHyperparams)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            hyperparams_for("wordnet", "gpt", "default")

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            hyperparams_for("wordnet", "am_dgcnn", "magic")

    def test_invalid_hparams(self):
        with pytest.raises(ValueError):
            ModelHyperparams(lr=0.0)
        with pytest.raises(ValueError):
            ModelHyperparams(hidden_dim=0)

    def test_build_models(self):
        hp = DEFAULT_HPARAMS
        am = build_model("am_dgcnn", 10, 3, 5, hp, rng=0)
        va = build_model("vanilla_dgcnn", 10, 3, 5, hp, rng=0)
        assert isinstance(am, AMDGCNN)
        assert isinstance(va, VanillaDGCNN)
        with pytest.raises(KeyError):
            build_model("gpt", 10, 3, 5, hp)

    def test_train_config(self):
        hp = ModelHyperparams(lr=2e-3, epochs=7, batch_size=4)
        cfg = train_config_for(hp)
        assert cfg.epochs == 7 and cfg.lr == 2e-3 and cfg.batch_size == 4
        assert train_config_for(hp, epochs=3).epochs == 3

    def test_paper_table3_covers_models(self):
        for ds, entry in PAPER_TABLE3.items():
            assert set(entry) == set(MODEL_NAMES)


class TestRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return ExperimentRunner(scale=0.12, seed=0)

    def test_bundle_cached(self, runner):
        b1 = runner.bundle("cora", num_targets=40)
        b2 = runner.bundle("cora", num_targets=40)
        assert b1 is b2
        assert len(set(b1.train_idx) & set(b1.test_idx)) == 0

    def test_run_produces_result(self, runner):
        hp = ModelHyperparams(hidden_dim=16, sort_k=10, epochs=2, batch_size=8)
        res = runner.run("cora", "am_dgcnn", hp, num_targets=40)
        assert res.dataset == "cora"
        assert 0.0 <= res.auc <= 1.0
        assert len(res.history.eval_auc) == 2
        assert res.train_size + res.test_size == 40

    def test_train_fraction_subsamples(self, runner):
        hp = ModelHyperparams(hidden_dim=16, sort_k=10, epochs=1, batch_size=8)
        full = runner.run("cora", "am_dgcnn", hp, num_targets=40, eval_each_epoch=False)
        half = runner.run(
            "cora", "am_dgcnn", hp, num_targets=40, train_fraction=0.5, eval_each_epoch=False
        )
        assert half.train_size < full.train_size
        assert half.test_size == full.test_size

    def test_invalid_fraction(self, runner):
        hp = ModelHyperparams(epochs=1)
        with pytest.raises(ValueError):
            runner.run("cora", "am_dgcnn", hp, train_fraction=0.0)


class TestReport:
    def test_render_table(self):
        out = render_table(["a", "b"], [["x", 1.23456], ["yy", 2.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "1.235" in out  # floats at 3 decimals

    def test_render_series(self):
        out = render_series("title", "epoch", [2, 4], {"am": [0.9, 0.95], "van": [0.5, 0.55]})
        assert out.startswith("title")
        assert "epoch" in out and "am" in out and "van" in out
        assert "0.950" in out
