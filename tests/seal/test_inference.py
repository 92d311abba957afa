"""Classifying unlabeled pairs with a bundled model via LinkScorer."""

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.serve import LinkScorer, ModelBundle


@pytest.fixture(scope="module")
def held():
    task = load_primekg_like(scale=0.12, num_targets=40, rng=0)
    model = AMDGCNN(
        task.feature_config.width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=16, num_conv_layers=2, sort_k=10, dropout=0.5, rng=1,
    )
    return task, model, ModelBundle.from_model(model, task, task_name="inference")


class TestClassifyPairs:
    def test_restores_mode(self, held):
        """Scoring evaluates the scorer's model and hands it back in train mode."""
        task, model, bundle = held
        scorer = LinkScorer(bundle, task.graph, cache_scores=False)
        scorer.model.train()
        probs = scorer.score(task.pairs[:3]).probs
        assert scorer.model.training
        scorer.model.eval()
        np.testing.assert_array_equal(scorer.score(task.pairs[:3]).probs, probs)

    def test_pair_shape_validation(self, held):
        task, model, bundle = held
        scorer = LinkScorer(bundle, task.graph)
        for bad in (np.array([1, 2, 3]), np.zeros((2, 3), dtype=np.int64)):
            with pytest.raises(ValueError):
                scorer.score(bad)
