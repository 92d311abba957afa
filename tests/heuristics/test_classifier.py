"""Heuristic-feature logistic-regression baseline."""

import numpy as np
import pytest

from repro.datasets.cora import load_cora_like
from repro.heuristics.classifier import HeuristicLinkClassifier, heuristic_features


class TestFeaturizer:
    def test_feature_width(self, tiny_graph):
        x = heuristic_features(tiny_graph, np.array([[0, 1], [2, 3]]))
        # 5 heuristics + 2×2 node features.
        assert x.shape == (2, 9)


class TestClassifier:
    def test_learns_link_existence(self):
        """On the Cora-like task, heuristics beat random clearly."""
        task = load_cora_like(scale=0.2, num_targets=200, rng=0)
        clf = HeuristicLinkClassifier(num_classes=2, epochs=200, rng=0)
        tr = np.arange(150)
        te = np.arange(150, 200)
        clf.fit(task.graph, task.pairs[tr], task.labels[tr])
        probs = clf.predict_proba(task.graph, task.pairs[te])
        assert probs.shape == (50, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        acc = (clf.predict(task.graph, task.pairs[te]) == task.labels[te]).mean()
        assert acc > 0.6

    def test_predict_before_fit_raises(self, tiny_graph):
        clf = HeuristicLinkClassifier(num_classes=2)
        with pytest.raises(RuntimeError):
            clf.predict(tiny_graph, np.array([[0, 1]]))

    def test_invalid_num_classes(self):
        with pytest.raises(ValueError):
            HeuristicLinkClassifier(num_classes=1)
