"""BFS traversal vs networkx ground truth."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import erdos_renyi_edges
from repro.graph.structure import Graph
from repro.graph.traversal import (
    _take_ragged,
    bfs_distances,
    k_hop_union,
    multi_source_bfs,
)


class TestBFSDistances:
    def test_path_graph(self, path_graph):
        np.testing.assert_array_equal(bfs_distances(path_graph, 0), [0, 1, 2, 3, 4])

    def test_unreachable_gets_minus_one(self):
        g = Graph.from_undirected(4, np.array([[0, 1]]))
        np.testing.assert_array_equal(bfs_distances(g, 0), [0, 1, -1, -1])

    def test_max_depth_truncates(self, path_graph):
        np.testing.assert_array_equal(
            bfs_distances(path_graph, 0, max_depth=2), [0, 1, 2, -1, -1]
        )

    def test_source_out_of_range(self, path_graph):
        with pytest.raises(ValueError):
            bfs_distances(path_graph, 9)

    def test_blocked_edge_both_directions(self, path_graph):
        # Blocking 1-2 cuts the path graph in two.
        d = bfs_distances(path_graph, 0, blocked_edge=(1, 2))
        np.testing.assert_array_equal(d, [0, 1, -1, -1, -1])
        d2 = bfs_distances(path_graph, 4, blocked_edge=(1, 2))
        np.testing.assert_array_equal(d2, [-1, -1, 2, 1, 0])

    def test_blocked_edge_with_alternative_path(self, tiny_graph):
        # 0-1 blocked, but 0-2-1 exists.
        d = bfs_distances(tiny_graph, 0, blocked_edge=(0, 1))
        assert d[1] == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        edges = erdos_renyi_edges(40, 0.1, rng=seed)
        g = Graph.from_undirected(40, edges)
        nxg = nx.Graph(edges.tolist())
        nxg.add_nodes_from(range(40))
        for src in [0, 7, 19]:
            ours = bfs_distances(g, src)
            theirs = nx.single_source_shortest_path_length(nxg, src)
            for v in range(40):
                assert ours[v] == theirs.get(v, -1)


class TestTakeRagged:
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 6)), max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_matches_python_slicing(self, runs):
        values = np.arange(40, dtype=np.int64) * 3
        starts = np.array([s for s, _ in runs], dtype=np.int64)
        counts = np.array([min(c, 40 - s) for s, c in runs], dtype=np.int64)
        got = _take_ragged(values, starts, counts)
        want = np.concatenate(
            [values[s : s + c] for s, c in zip(starts, counts)] or [values[:0]]
        )
        np.testing.assert_array_equal(got, want)

    def test_empty(self):
        out = _take_ragged(
            np.arange(5), np.empty(0, np.int64), np.empty(0, np.int64)
        )
        assert out.size == 0

    def test_zero_count_runs_skipped(self):
        # Zero-length runs between non-empty ones contribute nothing.
        values = np.arange(10)
        starts = np.array([4, 7, 0, 2])
        counts = np.array([2, 0, 0, 3])
        np.testing.assert_array_equal(
            _take_ragged(values, starts, counts), [4, 5, 2, 3, 4]
        )


class TestBlockedNode:
    def test_blocked_node_unreachable(self, path_graph):
        # Blocking node 2 severs the path at it.
        d = bfs_distances(path_graph, 0, blocked_node=2)
        np.testing.assert_array_equal(d, [0, 1, -1, -1, -1])

    def test_blocked_node_with_detour(self, tiny_graph):
        # 0-1 direct hop survives blocking 2; routes through 2 do not.
        d = bfs_distances(tiny_graph, 0, blocked_node=2)
        assert d[2] == -1
        assert d[1] == 1

    def test_cannot_block_source(self, path_graph):
        with pytest.raises(ValueError):
            bfs_distances(path_graph, 1, blocked_node=1)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_equals_bfs_on_pruned_graph(self, seed):
        # blocked_node= must equal BFS over a copy with every arc
        # touching the node dropped — the allocation it replaces.
        edges = erdos_renyi_edges(30, 0.12, rng=seed)
        g = Graph.from_undirected(30, edges)
        src, blocked = 0, 5
        mask = (edges == blocked).any(axis=1)
        pruned = Graph.from_undirected(30, edges[~mask])
        got = bfs_distances(g, src, blocked_node=blocked)
        np.testing.assert_array_equal(got, bfs_distances(pruned, src))


def densify(reached, num_rows, num_nodes):
    """``multi_source_bfs``'s sparse ``(keys, depth)`` as an ``(S, N)`` matrix."""
    keys, depth = reached
    dist = np.full(num_rows * num_nodes, -1, dtype=np.int64)
    dist[keys] = depth
    return dist.reshape(num_rows, num_nodes)


class TestMultiSourceBFS:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("max_depth", [None, 2])
    def test_rows_match_single_source(self, seed, max_depth):
        edges = erdos_renyi_edges(50, 0.08, rng=seed)
        g = Graph.from_undirected(50, edges)
        indptr, indices, _ = g.csr()
        sources = np.array([0, 7, 7, 23, 49])  # duplicates get rows too
        keys, depth = multi_source_bfs(indptr, indices, sources, max_depth=max_depth)
        assert keys.dtype == np.int64 and depth.dtype == np.int32
        assert keys.shape == depth.shape
        assert (np.diff(keys) > 0).all()  # sorted and unique
        assert (depth >= 0).all()
        dist = densify((keys, depth), 5, 50)
        for row, src in enumerate(sources):
            np.testing.assert_array_equal(
                dist[row], bfs_distances(g, int(src), max_depth=max_depth)
            )
            lo, hi = np.searchsorted(keys, [row * 50, (row + 1) * 50])
            np.testing.assert_array_equal(
                keys[lo:hi] - row * 50, k_hop_union(g, [int(src)], max_depth or 50)
            )

    def test_blocked_per_row(self, tiny_graph):
        indptr, indices, _ = tiny_graph.csr()
        sources = np.array([0, 1])
        blocked = np.array([1, 0])
        reached = multi_source_bfs(indptr, indices, sources, blocked=blocked)
        dist = densify(reached, 2, tiny_graph.num_nodes)
        np.testing.assert_array_equal(
            dist[0], bfs_distances(tiny_graph, 0, blocked_node=1)
        )
        np.testing.assert_array_equal(
            dist[1], bfs_distances(tiny_graph, 1, blocked_node=0)
        )

    def test_empty_sources(self, path_graph):
        indptr, indices, _ = path_graph.csr()
        keys, depth = multi_source_bfs(indptr, indices, np.empty(0, np.int64))
        assert keys.shape == depth.shape == (0,)
        assert keys.dtype == np.int64 and depth.dtype == np.int32

    def test_validation(self, path_graph):
        indptr, indices, _ = path_graph.csr()
        with pytest.raises(ValueError):
            multi_source_bfs(indptr, indices, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            multi_source_bfs(indptr, indices, np.array([9]))
        with pytest.raises(ValueError):
            multi_source_bfs(indptr, indices, np.array([0]), blocked=np.array([0, 1]))
        with pytest.raises(ValueError):
            multi_source_bfs(indptr, indices, np.array([2]), blocked=np.array([2]))


class TestKHop:
    """``k_hop_union`` from a single source: that source's k-hop ball."""

    def test_k_zero_is_self(self, path_graph):
        np.testing.assert_array_equal(k_hop_union(path_graph, [2], 0), [2])

    def test_k_two_on_path(self, path_graph):
        np.testing.assert_array_equal(k_hop_union(path_graph, [0], 2), [0, 1, 2])

    def test_negative_k(self, path_graph):
        with pytest.raises(ValueError):
            k_hop_union(path_graph, [0], -1)

    @given(st.integers(0, 4), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_monotone_in_k(self, source, k):
        edges = erdos_renyi_edges(20, 0.12, rng=3)
        g = Graph.from_undirected(20, edges)
        smaller = set(k_hop_union(g, [source], k).tolist())
        larger = set(k_hop_union(g, [source], k + 1).tolist())
        assert smaller <= larger


class TestPairwise:
    """One pair's hop count is one entry of ``bfs_distances``."""

    def test_values(self, path_graph):
        assert bfs_distances(path_graph, 0)[3] == 3
        assert bfs_distances(path_graph, 2)[2] == 0

    def test_unreachable(self):
        g = Graph.from_undirected(3, np.array([[0, 1]]))
        assert bfs_distances(g, 0)[2] == -1
