"""Block-diagonal batching."""

import numpy as np
import pytest

from tests.oracles import collate
from repro.graph.structure import Graph


def make_graph(n, edges, edge_attr_dim=0):
    edges = np.asarray(edges)
    ea = np.ones((len(edges), edge_attr_dim)) if edge_attr_dim else None
    return Graph.from_undirected(n, edges, edge_attr=ea)


class TestCollate:
    def test_offsets_and_batch_vector(self):
        g1 = make_graph(3, [[0, 1], [1, 2]])
        g2 = make_graph(2, [[0, 1]])
        batch = collate([g1, g2], [np.ones((3, 4)), np.zeros((2, 4))])
        assert batch.num_graphs == 2
        assert batch.num_nodes == 5
        assert batch.num_edges == 6
        np.testing.assert_array_equal(batch.batch, [0, 0, 0, 1, 1])
        # Second graph's arcs offset by 3.
        assert batch.edge_index[:, 4:].min() >= 3
        np.testing.assert_array_equal(batch.plans.node().counts, [3, 2])

    def test_features_stacked(self):
        g1 = make_graph(2, [[0, 1]])
        f1 = np.arange(4.0).reshape(2, 2)
        f2 = np.arange(4.0, 8.0).reshape(2, 2)
        batch = collate([g1, g1], [f1, f2])
        np.testing.assert_allclose(batch.node_features, np.vstack([f1, f2]))

    def test_edge_attr_zero_fill_for_missing(self):
        g_with = make_graph(2, [[0, 1]], edge_attr_dim=3)
        g_without = make_graph(2, [[0, 1]])
        batch = collate(
            [g_with, g_without], [np.ones((2, 1)), np.ones((2, 1))], edge_attr_dim=3
        )
        np.testing.assert_allclose(batch.edge_attr[:2], 1.0)
        np.testing.assert_allclose(batch.edge_attr[2:], 0.0)

    def test_edge_attr_dim_zero_gives_empty(self):
        g = make_graph(2, [[0, 1]])
        batch = collate([g], [np.ones((2, 1))])
        assert batch.edge_attr.shape == (2, 0)

    def test_edge_attr_width_mismatch(self):
        g = make_graph(2, [[0, 1]], edge_attr_dim=2)
        with pytest.raises(ValueError):
            collate([g], [np.ones((2, 1))], edge_attr_dim=5)

    def test_feature_width_mismatch(self):
        g = make_graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            collate([g, g], [np.ones((2, 3)), np.ones((2, 4))])

    def test_feature_rows_mismatch(self):
        g = make_graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            collate([g], [np.ones((3, 2))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            collate([], [])

    def test_count_mismatch(self):
        g = make_graph(2, [[0, 1]])
        with pytest.raises(ValueError):
            collate([g], [np.ones((2, 2)), np.ones((2, 2))])

    def test_single_graph(self):
        g = make_graph(3, [[0, 1], [1, 2]])
        batch = collate([g], [np.ones((3, 2))])
        np.testing.assert_array_equal(batch.edge_index, g.edge_index)
