"""Hypothesis property tests across the graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import dedupe_edges, erdos_renyi_edges
from repro.graph.structure import Graph
from repro.graph.traversal import bfs_distances
from tests.oracles import extract_enclosing_subgraph, has_edge


def random_graph(n_seed):
    n = 10 + n_seed % 30
    edges = erdos_renyi_edges(n, 0.15, rng=n_seed)
    if len(edges) == 0:
        edges = np.array([[0, 1]])
    return Graph.from_undirected(n, edges), n


class TestStructureProperties:
    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_from_undirected_is_symmetric(self, seed):
        g, n = random_graph(seed)
        src, dst = g.edge_index
        arcs = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in arcs for (a, b) in arcs)

    @given(st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_degree_sums_to_arc_count(self, seed):
        g, n = random_graph(seed)
        assert g.degree().sum() == g.num_edges

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_induced_subgraph_edge_subset(self, seed):
        g, n = random_graph(seed)
        gen = np.random.default_rng(seed)
        nodes = np.sort(gen.choice(n, size=min(6, n), replace=False))
        sub, node_map = g.induced_subgraph(nodes)
        src, dst = sub.edge_index
        for a, b in zip(src, dst):
            assert has_edge(g, int(node_map[a]), int(node_map[b]))


class TestTraversalProperties:
    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality_on_bfs(self, seed):
        """d(s, v) <= d(s, u) + 1 for every arc u→v."""
        g, n = random_graph(seed)
        dist = bfs_distances(g, 0)
        src, dst = g.edge_index
        for u, v in zip(src, dst):
            if dist[u] >= 0:
                assert dist[v] != -1
                assert dist[v] <= dist[u] + 1

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_bfs_symmetric_on_undirected(self, seed):
        g, n = random_graph(seed)
        gen = np.random.default_rng(seed + 1)
        u, v = gen.choice(n, size=2, replace=False)
        assert bfs_distances(g, int(u))[v] == bfs_distances(g, int(v))[u]


class TestSubgraphProperties:
    @given(st.integers(0, 60))
    @settings(max_examples=15, deadline=None)
    def test_extraction_invariants(self, seed):
        g, n = random_graph(seed)
        gen = np.random.default_rng(seed + 7)
        u, v = gen.choice(n, size=2, replace=False)
        sub = extract_enclosing_subgraph(g, int(u), int(v), k=2)
        # Targets first, node map valid, no target link, distances consistent.
        assert sub.node_map[0] == u and sub.node_map[1] == v
        assert len(np.unique(sub.node_map)) == sub.num_nodes
        assert not has_edge(sub.graph, 0, 1)
        assert sub.dist_a[0] == 0 and sub.dist_b[1] == 0

    @given(st.integers(0, 60), st.integers(4, 12))
    @settings(max_examples=15, deadline=None)
    def test_cap_never_exceeded(self, seed, cap):
        g, n = random_graph(seed)
        gen = np.random.default_rng(seed + 13)
        u, v = gen.choice(n, size=2, replace=False)
        sub = extract_enclosing_subgraph(g, int(u), int(v), k=2, max_nodes=cap, rng=0)
        assert sub.num_nodes <= max(cap, 2)


class TestDedupeProperties:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, pairs):
        edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        once = dedupe_edges(edges)
        twice = dedupe_edges(once)
        np.testing.assert_array_equal(once, twice)
