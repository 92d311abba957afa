"""Extension models end-to-end: R-GCN learns the planted signal."""

import pytest

from repro.datasets import load_wordnet_like
from repro.models import RGCNDGCNN
from repro.seal import (
    SEALDataset,
    TrainConfig,
    evaluate,
    train,
    train_test_split_indices,
)
from repro.data import warm


@pytest.fixture(scope="module")
def wordnet_mini():
    task = load_wordnet_like(scale=0.2, num_targets=220, rng=0)
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.25, labels=task.labels, rng=0)
    warm(ds)
    return task, ds, tr, te


def fit(model, ds, tr, te):
    train(model, ds, tr, TrainConfig(epochs=6, batch_size=16, lr=3e-3), rng=1)
    return evaluate(model, ds, te)


class TestRGCNEndToEnd:
    def test_learns_edge_attribute_signal(self, wordnet_mini):
        task, ds, tr, te = wordnet_mini
        model = RGCNDGCNN(
            ds.feature_width, task.num_classes, num_relations=task.edge_attr_dim,
            num_bases=6, hidden_dim=32, num_conv_layers=2, sort_k=20,
            dropout=0.0, rng=1,
        )
        res = fit(model, ds, tr, te)
        assert res.auc > 0.65
