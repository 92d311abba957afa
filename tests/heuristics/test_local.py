"""Local heuristics vs hand-computed values and networkx."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_edges
from repro.graph.structure import Graph
from repro.heuristics.local import (
    adamic_adar,
    common_neighbors,
    jaccard_coefficient,
    preferential_attachment,
    resource_allocation,
)
from tests.oracles import has_edge


@pytest.fixture
def triangle_plus():
    """Triangle 0-1-2 plus pendant 3 attached to 2."""
    return Graph.from_undirected(4, np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))


class TestHandValues:
    def test_common_neighbors(self, triangle_plus):
        out = common_neighbors(triangle_plus, np.array([[0, 1], [0, 3], [1, 3]]))
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0])  # via node 2

    def test_jaccard(self, triangle_plus):
        out = jaccard_coefficient(triangle_plus, np.array([[0, 1]]))
        # Γ(0)={1,2}, Γ(1)={0,2}: |∩|=1, |∪|=3.
        np.testing.assert_allclose(out, [1 / 3])

    def test_adamic_adar(self, triangle_plus):
        out = adamic_adar(triangle_plus, np.array([[0, 1]]))
        np.testing.assert_allclose(out, [1 / np.log(3)])  # deg(2)=3

    def test_resource_allocation(self, triangle_plus):
        out = resource_allocation(triangle_plus, np.array([[0, 1]]))
        np.testing.assert_allclose(out, [1 / 3])

    def test_preferential_attachment(self, triangle_plus):
        out = preferential_attachment(triangle_plus, np.array([[0, 3], [2, 3]]))
        np.testing.assert_allclose(out, [2 * 1, 3 * 1])

    def test_isolated_pair_zero(self):
        g = Graph.from_undirected(4, np.array([[0, 1]]))
        assert jaccard_coefficient(g, np.array([[2, 3]]))[0] == 0.0


class TestAgainstNetworkx:
    @pytest.fixture
    def random_pair_setup(self):
        edges = erdos_renyi_edges(50, 0.08, rng=1)
        g = Graph.from_undirected(50, edges)
        nxg = nx.Graph(edges.tolist())
        nxg.add_nodes_from(range(50))
        gen = np.random.default_rng(0)
        pairs = gen.integers(0, 50, size=(30, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        return g, nxg, pairs

    def test_jaccard_matches(self, random_pair_setup):
        g, nxg, pairs = random_pair_setup
        ours = jaccard_coefficient(g, pairs)
        theirs = [s for _, _, s in nx.jaccard_coefficient(nxg, pairs.tolist())]
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_adamic_adar_matches(self, random_pair_setup):
        g, nxg, pairs = random_pair_setup
        ours = adamic_adar(g, pairs)
        theirs = [s for _, _, s in nx.adamic_adar_index(nxg, pairs.tolist())]
        np.testing.assert_allclose(ours, theirs, atol=1e-12)

    def test_preferential_attachment_matches(self, random_pair_setup):
        g, nxg, pairs = random_pair_setup
        ours = preferential_attachment(g, pairs)
        theirs = [s for _, _, s in nx.preferential_attachment(nxg, pairs.tolist())]
        np.testing.assert_allclose(ours, theirs)

    def test_resource_allocation_matches(self, random_pair_setup):
        g, nxg, pairs = random_pair_setup
        ours = resource_allocation(g, pairs)
        theirs = [s for _, _, s in nx.resource_allocation_index(nxg, pairs.tolist())]
        np.testing.assert_allclose(ours, theirs, atol=1e-12)


class TestValidation:
    def test_pairs_shape(self, triangle_plus):
        with pytest.raises(ValueError):
            common_neighbors(triangle_plus, np.array([0, 1]))


class TestGraphWithoutPairs:
    def test_removes_both_directions(self, triangle_plus):
        from repro.heuristics.local import graph_without_pairs

        pruned = graph_without_pairs(triangle_plus, np.array([[0, 1]]))
        assert not has_edge(pruned, 0, 1)
        assert not has_edge(pruned, 1, 0)
        assert has_edge(pruned, 1, 2)

    def test_empty_pairs_identity(self, triangle_plus):
        from repro.heuristics.local import graph_without_pairs

        out = graph_without_pairs(triangle_plus, np.empty((0, 2), dtype=np.int64))
        assert out is triangle_plus

    def test_orientation_agnostic(self, triangle_plus):
        from repro.heuristics.local import graph_without_pairs

        pruned = graph_without_pairs(triangle_plus, np.array([[1, 0]]))
        assert not has_edge(pruned, 0, 1)

    def test_shape_validation(self, triangle_plus):
        from repro.heuristics.local import graph_without_pairs

        with pytest.raises(ValueError):
            graph_without_pairs(triangle_plus, np.array([1, 2]))

    def test_katz_leakage_demo(self, triangle_plus):
        """Katz on the raw graph reads the label; guarded it does not."""
        from repro.heuristics.global_ import katz_index
        from repro.heuristics.local import graph_without_pairs

        pair = np.array([[0, 1]])
        raw = katz_index(triangle_plus, pair, beta=0.01)[0]
        guarded = katz_index(graph_without_pairs(triangle_plus, pair), pair, beta=0.01)[0]
        assert raw > guarded  # the direct-edge beta term is gone
