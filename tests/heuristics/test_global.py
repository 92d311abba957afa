"""High-order heuristics: Katz, rooted PageRank, SimRank."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_edges
from repro.graph.structure import Graph
from repro.heuristics.global_ import KATZ_MAX_POWER, katz_index, rooted_pagerank, simrank


@pytest.fixture
def small_random():
    edges = erdos_renyi_edges(30, 0.12, rng=2)
    return Graph.from_undirected(30, edges)


class TestKatz:
    def test_matches_dense_series(self, small_random):
        g = small_random
        a = np.zeros((30, 30))
        src, dst = g.edge_index
        a[src, dst] = 1.0
        beta = 0.01
        # Dense reference: sum_{l=1..KATZ_MAX_POWER} beta^l A^l.
        dense = np.zeros_like(a)
        power = np.eye(30)
        for l in range(1, KATZ_MAX_POWER + 1):
            power = power @ a
            dense += (beta**l) * power
        pairs = np.array([[0, 5], [3, 9], [10, 20]])
        ours = katz_index(g, pairs, beta=beta)
        np.testing.assert_allclose(ours, dense[pairs[:, 0], pairs[:, 1]], atol=1e-12)

    def test_adjacent_beats_distant(self, path_graph):
        scores = katz_index(path_graph, np.array([[0, 1], [0, 4]]), beta=0.1)
        assert scores[0] > scores[1]

    def test_invalid_beta(self, path_graph):
        with pytest.raises(ValueError):
            katz_index(path_graph, np.array([[0, 1]]), beta=0.0)


class TestRootedPagerank:
    def test_symmetric_and_positive_for_connected(self, small_random):
        pairs = np.array([[0, 5], [5, 0]])
        scores = rooted_pagerank(small_random, pairs)
        assert scores[0] == pytest.approx(scores[1])

    def test_neighbor_scores_higher_than_far(self, path_graph):
        s = rooted_pagerank(path_graph, np.array([[0, 1], [0, 4]]))
        assert s[0] > s[1]

    def test_rows_are_distributions(self, small_random):
        # The stationary vector of a rooted walk sums to <= 1 (dangling
        # nodes may leak mass). Verify via the score of self-pairs.
        s = rooted_pagerank(small_random, np.array([[3, 3]]))
        assert 0 < s[0] <= 2.0  # pi_u[u] counted twice by symmetry


class TestSimrank:
    def test_self_similarity_is_one(self, small_random):
        s = simrank(small_random, np.array([[4, 4]]))
        np.testing.assert_allclose(s, 1.0)

    def test_structurally_equivalent_nodes_similar(self, star_graph):
        # All leaves of a star share the identical neighborhood {0}.
        s = simrank(star_graph, np.array([[1, 2], [0, 1]]))
        assert s[0] > s[1]

    def test_range(self, small_random):
        gen = np.random.default_rng(1)
        pairs = gen.integers(0, 30, size=(20, 2))
        s = simrank(small_random, pairs)
        assert (s >= -1e-9).all() and (s <= 1.0 + 1e-9).all()

    def test_large_graph_rejected(self):
        g = Graph(5000, np.empty((2, 0), dtype=np.int64))
        with pytest.raises(ValueError):
            simrank(g, np.array([[0, 1]]))
