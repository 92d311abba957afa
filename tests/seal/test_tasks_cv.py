"""Task builders and cross-validation."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_edges
from repro.graph.structure import Graph
from repro.models import AMDGCNN
from repro.seal import (
    SEALDataset,
    TrainConfig,
    cross_validate,
    kfold_indices,
    make_link_prediction_task,
)
from repro.data import warm
from tests.oracles import has_edge


@pytest.fixture
def medium_graph():
    edges = erdos_renyi_edges(60, 0.08, rng=0)
    etype = np.arange(len(edges)) % 3
    return Graph.from_undirected(60, edges, edge_type=etype, edge_attr=np.eye(3)[etype])


class TestLinkPredictionTask:
    def test_balanced_labels_and_validity(self, medium_graph):
        task = make_link_prediction_task(medium_graph, 40, rng=0)
        assert task.num_links == 40
        counts = task.class_counts()
        assert counts[0] == counts[1] == 20
        for (u, v), y in zip(task.pairs, task.labels):
            assert has_edge(medium_graph, int(u), int(v)) == bool(y)

    def test_edge_attr_dim_derived(self, medium_graph):
        task = make_link_prediction_task(medium_graph, 20, rng=0)
        assert task.edge_attr_dim == 3
        bare = Graph(medium_graph.num_nodes, medium_graph.edge_index)
        assert make_link_prediction_task(bare, 20, rng=0).edge_attr_dim == 0

    def test_deterministic(self, medium_graph):
        a = make_link_prediction_task(medium_graph, 20, rng=5)
        b = make_link_prediction_task(medium_graph, 20, rng=5)
        np.testing.assert_array_equal(a.pairs, b.pairs)

    def test_too_many_positives(self, medium_graph):
        with pytest.raises(ValueError):
            make_link_prediction_task(medium_graph, 10**6, rng=0)

    def test_default_features_adapt(self, medium_graph):
        task = make_link_prediction_task(medium_graph, 20, rng=0)
        # Homogeneous graph without node features: DRNL only.
        assert task.feature_config.num_node_types == 0
        assert task.feature_config.explicit_dim == 0


class TestKFold:
    def test_disjoint_cover(self):
        folds = kfold_indices(23, 4, rng=0)
        assert len(folds) == 4
        all_idx = np.concatenate(folds)
        assert len(all_idx) == 23
        assert len(np.unique(all_idx)) == 23

    def test_stratified_spreads_classes(self):
        labels = np.array([0] * 16 + [1] * 4)
        folds = kfold_indices(20, 4, labels=labels, rng=0)
        for fold in folds:
            assert (labels[fold] == 1).sum() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(2, 5)
        with pytest.raises(ValueError):
            kfold_indices(10, 2, labels=np.zeros(3))


class TestCrossValidate:
    def test_runs_all_folds(self, medium_graph):
        task = make_link_prediction_task(medium_graph, 30, rng=0)
        ds = SEALDataset(task, rng=0)
        warm(ds)
        def factory(fold):
            return AMDGCNN(
                ds.feature_width, 2, edge_dim=task.edge_attr_dim,
                hidden_dim=8, num_conv_layers=2, sort_k=6, dropout=0.0, rng=fold,
            )

        result = cross_validate(
            factory, ds, TrainConfig(epochs=1, batch_size=8, lr=1e-3), k=3, rng=0
        )
        assert len(result.fold_results) == 3
        summary = result.summary()
        assert summary["folds"] == 3
        assert 0.0 <= summary["auc_mean"] <= 1.0
        assert summary["auc_std"] >= 0.0
        assert result.metric("ap").shape == (3,)
