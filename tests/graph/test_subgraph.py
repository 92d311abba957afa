"""Enclosing-subgraph extraction invariants of the per-link oracle."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_edges
from repro.graph.structure import Graph
from repro.graph.traversal import bfs_distances
from tests.oracles import bfs_within, extract_enclosing_subgraph, has_edge


@pytest.fixture
def random_graph():
    edges = erdos_renyi_edges(60, 0.07, rng=5)
    etype = np.arange(len(edges)) % 4
    return Graph.from_undirected(60, edges, edge_type=etype, edge_attr=np.eye(4)[etype])


class TestBasicContract:
    def test_targets_first(self, random_graph):
        sub = extract_enclosing_subgraph(random_graph, 3, 17, k=2)
        assert sub.node_map[0] == 3
        assert sub.node_map[1] == 17
        assert sub.src == 0 and sub.dst == 1

    def test_target_link_removed(self, tiny_graph):
        sub = extract_enclosing_subgraph(tiny_graph, 0, 1, k=2)
        assert not has_edge(sub.graph, 0, 1)
        assert not has_edge(sub.graph, 1, 0)

    def test_edge_attrs_follow(self, random_graph):
        sub = extract_enclosing_subgraph(random_graph, 3, 17, k=2)
        assert sub.graph.edge_attr is not None
        assert sub.graph.edge_attr.shape == (sub.graph.num_edges, 4)
        # Attribute rows still one-hot of the edge type.
        np.testing.assert_allclose(
            sub.graph.edge_attr.argmax(axis=1), sub.graph.edge_type
        )

    def test_same_endpoints_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraph(tiny_graph, 2, 2)

    def test_invalid_mode(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraph(tiny_graph, 0, 1, mode="both")

    def test_invalid_k(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraph(tiny_graph, 0, 1, k=0)

    def test_disconnected_pair_still_works(self):
        g = Graph.from_undirected(6, np.array([[0, 1], [2, 3], [4, 5]]))
        sub = extract_enclosing_subgraph(g, 0, 4, k=2)
        assert sub.num_nodes >= 2
        assert sub.dist_a[sub.dst] == -1  # unreachable across components


class TestModes:
    def test_union_superset_of_intersection(self, random_graph):
        union = extract_enclosing_subgraph(random_graph, 3, 17, k=2, mode="union")
        inter = extract_enclosing_subgraph(random_graph, 3, 17, k=2, mode="intersection")
        assert set(inter.node_map.tolist()) <= set(union.node_map.tolist())

    def test_union_contains_k_hop(self, random_graph):
        sub = extract_enclosing_subgraph(random_graph, 3, 17, k=1, mode="union")
        d3 = bfs_within(random_graph, 3, 1)
        expected = set(np.nonzero(d3 >= 0)[0].tolist())
        assert expected <= set(sub.node_map.tolist())

    def test_intersection_nodes_close_to_both(self, random_graph):
        sub = extract_enclosing_subgraph(random_graph, 3, 17, k=2, mode="intersection")
        du = bfs_within(random_graph, 3, 2)
        dv = bfs_within(random_graph, 17, 2)
        for node in sub.node_map[2:]:
            assert du[node] >= 0 and dv[node] >= 0


class TestMaxNodesCap:
    def test_cap_respected(self, random_graph):
        sub = extract_enclosing_subgraph(random_graph, 3, 17, k=2, max_nodes=10, rng=0)
        assert sub.num_nodes <= 10
        # Targets always kept.
        assert sub.node_map[0] == 3 and sub.node_map[1] == 17

    def test_cap_keeps_closest_shells(self, random_graph):
        capped = extract_enclosing_subgraph(random_graph, 3, 17, k=2, max_nodes=12, rng=0)
        full = extract_enclosing_subgraph(random_graph, 3, 17, k=2)
        du = bfs_within(random_graph, 3, 2)
        dv = bfs_within(random_graph, 17, 2)

        def closeness(n):
            a = du[n] if du[n] >= 0 else 3
            b = dv[n] if dv[n] >= 0 else 3
            return a + b

        kept = [closeness(n) for n in capped.node_map[2:]]
        dropped_set = set(full.node_map.tolist()) - set(capped.node_map.tolist())
        if kept and dropped_set:
            assert max(kept) <= min(closeness(n) for n in dropped_set)

    def test_cap_deterministic_given_rng(self, random_graph):
        a = extract_enclosing_subgraph(random_graph, 3, 17, k=2, max_nodes=10, rng=42)
        b = extract_enclosing_subgraph(random_graph, 3, 17, k=2, max_nodes=10, rng=42)
        np.testing.assert_array_equal(a.node_map, b.node_map)


class TestDistances:
    def test_dist_arrays_match_bfs_of_subgraph(self, random_graph):
        sub = extract_enclosing_subgraph(random_graph, 3, 17, k=2)
        np.testing.assert_array_equal(sub.dist_a, bfs_distances(sub.graph, 0))
        np.testing.assert_array_equal(sub.dist_b, bfs_distances(sub.graph, 1))
