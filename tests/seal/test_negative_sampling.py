"""Negative-pair sampling utility."""

import numpy as np
import pytest

from repro.graph.structure import Graph
from repro.seal.dataset import sample_negative_pairs
from tests.oracles import has_edge


@pytest.fixture
def sparse_graph():
    return Graph.from_undirected(20, np.array([[0, 1], [1, 2], [2, 3]]))


class TestNegativeSampling:
    def test_no_edges_no_duplicates(self, sparse_graph):
        pairs = sample_negative_pairs(sparse_graph, 30, rng=0)
        assert pairs.shape == (30, 2)
        seen = set()
        for u, v in pairs:
            assert u < v
            assert not has_edge(sparse_graph, int(u), int(v))
            assert (u, v) not in seen
            seen.add((u, v))

    def test_deterministic(self, sparse_graph):
        a = sample_negative_pairs(sparse_graph, 10, rng=3)
        b = sample_negative_pairs(sparse_graph, 10, rng=3)
        np.testing.assert_array_equal(a, b)

    def test_zero_pairs(self, sparse_graph):
        assert sample_negative_pairs(sparse_graph, 0, rng=0).shape == (0, 2)

    def test_negative_count_rejected(self, sparse_graph):
        with pytest.raises(ValueError):
            sample_negative_pairs(sparse_graph, -1)

    def test_dense_graph_raises(self):
        # Complete graph on 4 nodes: no negatives exist.
        edges = np.array([[i, j] for i in range(4) for j in range(i + 1, 4)])
        g = Graph.from_undirected(4, edges)
        with pytest.raises(RuntimeError):
            sample_negative_pairs(g, 3, rng=0)
