"""Batched extraction is bit-identical to the per-link oracle.

Every test compares :func:`repro.graph.bulk.extract_enclosing_subgraphs`
(one multi-source sweep per batch) against per-link
:func:`tests.oracles.extract_enclosing_subgraph` calls — same node
order, same edge order, same DRNL distances — across modes, radii,
disconnected pairs, multi-edges between targets, the ``max_nodes``
rng tie-break and a 10^5-node sparse graph with hubs. ``TestMemory``
checks that extraction's footprint follows the subgraphs, not the graph.
"""

import tracemalloc

import numpy as np
import pytest

from repro.graph import bulk
from repro.graph.bulk import extract_enclosing_subgraphs
from repro.graph.generators import barabasi_albert_edges, erdos_renyi_edges
from repro.graph.structure import Graph
from tests.oracles import _distances_without, extract_enclosing_subgraph


def make_graph(num_nodes, edges):
    etype = np.arange(len(edges)) % 4
    return Graph.from_undirected(
        num_nodes,
        edges,
        node_type=np.arange(num_nodes) % 3,
        edge_type=etype,
        edge_attr=np.eye(4)[etype],
    )


def random_pairs(graph, count, seed):
    gen = np.random.default_rng(seed)
    pairs = gen.integers(0, graph.num_nodes, size=(count * 3, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:count]
    assert pairs.shape[0] == count
    return pairs


def assert_matches_oracle(graph, pairs, result, *, k, mode, max_nodes=None, rng_seed=None):
    """Slice each link out of the packed result and compare to the oracle."""
    assert result.num_links == pairs.shape[0]
    assert result.node_offsets[0] == 0 and result.edge_offsets[0] == 0
    assert result.node_offsets[-1] == result.node_map.shape[0]
    assert result.edge_offsets[-1] == result.edge_ids.shape[0]
    for i, (u, v) in enumerate(pairs):
        rng = None if rng_seed is None else np.random.default_rng(rng_seed + i)
        sub = extract_enclosing_subgraph(
            graph, int(u), int(v), k=k, mode=mode, max_nodes=max_nodes, rng=rng
        )
        ns = slice(result.node_offsets[i], result.node_offsets[i + 1])
        es = slice(result.edge_offsets[i], result.edge_offsets[i + 1])
        np.testing.assert_array_equal(result.node_map[ns], sub.node_map)
        np.testing.assert_array_equal(
            result.edge_index[:, es], np.stack(sub.graph.edge_index)
        )
        np.testing.assert_array_equal(
            graph.edge_type[result.edge_ids[es]], sub.graph.edge_type
        )
        np.testing.assert_array_equal(
            graph.edge_attr[result.edge_ids[es]], sub.graph.edge_attr
        )
        if result.dist_src is not None:
            np.testing.assert_array_equal(
                result.dist_src[ns], _distances_without(sub.graph, 0, 1)
            )
            np.testing.assert_array_equal(
                result.dist_dst[ns], _distances_without(sub.graph, 1, 0)
            )


class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["union", "intersection"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_graphs(self, mode, k):
        for seed in range(3):
            g = make_graph(80, erdos_renyi_edges(80, 0.06, rng=seed))
            pairs = random_pairs(g, 24, seed + 100)
            result = extract_enclosing_subgraphs(g, pairs, k=k, mode=mode)
            assert_matches_oracle(g, pairs, result, k=k, mode=mode)

    @pytest.mark.parametrize("mode", ["union", "intersection"])
    def test_dense_graph(self, mode):
        g = make_graph(120, barabasi_albert_edges(120, 5, rng=9))
        pairs = random_pairs(g, 32, 11)
        result = extract_enclosing_subgraphs(g, pairs, k=2, mode=mode)
        assert_matches_oracle(g, pairs, result, k=2, mode=mode)

    @pytest.mark.parametrize("cells", [1, 500, 1 << 20])
    def test_lookup_table_slices_are_invisible(self, monkeypatch, cells):
        # Edge induction fills its (links, selected) table a slice of
        # links at a time; one row, a few links or all links per slice
        # must give the same result.
        monkeypatch.setattr(bulk, "_LOOKUP_CELLS", cells)
        g = make_graph(120, barabasi_albert_edges(120, 3, rng=5))
        pairs = random_pairs(g, 30, 17)
        for mode in ("union", "intersection"):
            result = extract_enclosing_subgraphs(g, pairs, k=2, mode=mode)
            assert_matches_oracle(g, pairs, result, k=2, mode=mode)

    def test_disconnected_negative_pairs(self):
        # Three components; every pair crosses components (dist = -1).
        g = make_graph(9, np.array([[0, 1], [1, 2], [3, 4], [4, 5], [6, 7], [7, 8]]))
        pairs = np.array([[0, 4], [2, 6], [5, 8], [0, 8]])
        for mode in ("union", "intersection"):
            result = extract_enclosing_subgraphs(g, pairs, k=2, mode=mode)
            assert_matches_oracle(g, pairs, result, k=2, mode=mode)
            # Targets really are mutually unreachable in every subgraph.
            starts = result.node_offsets[:-1]
            assert (result.dist_src[starts + 1] == -1).all()
            assert (result.dist_dst[starts] == -1).all()

    def test_multi_edges_between_targets_all_removed(self):
        # Three parallel 0-1 edges (six arcs) plus context; every
        # multiplicity of the target link must be dropped.
        edges = np.array([[0, 1], [0, 1], [0, 1], [0, 2], [1, 2], [2, 3]])
        g = make_graph(4, edges)
        pairs = np.array([[0, 1], [1, 0]])
        result = extract_enclosing_subgraphs(g, pairs, k=2, mode="union")
        assert_matches_oracle(g, pairs, result, k=2, mode="union")
        src, dst = result.edge_index
        assert not (((src == 0) & (dst == 1)) | ((src == 1) & (dst == 0))).any()

    @pytest.mark.parametrize("max_nodes", [4, 8, 16])
    def test_max_nodes_rng_tie_break(self, max_nodes):
        # Dense graph so the cap triggers; both paths get the same
        # per-link rng stream, so the random tie-break must agree.
        g = make_graph(100, barabasi_albert_edges(100, 6, rng=2))
        pairs = random_pairs(g, 20, 21)
        result = extract_enclosing_subgraphs(
            g,
            pairs,
            k=2,
            mode="union",
            max_nodes=max_nodes,
            rng_factory=lambda i: np.random.default_rng(777 + i),
        )
        counts = np.diff(result.node_offsets)
        assert (counts <= max_nodes).all()
        assert_matches_oracle(
            g, pairs, result, k=2, mode="union", max_nodes=max_nodes, rng_seed=777
        )

    @pytest.mark.parametrize("mode", ["union", "intersection"])
    def test_large_sparse_graph_with_hubs(self, mode):
        # 10^5 nodes: few endpoints share a neighbourhood, so the batch
        # mixes tiny subgraphs with hub-sized ones that hit the cap.
        g, pairs = sparse_graph_with_hubs(100_000, 16, seed=4)
        result = extract_enclosing_subgraphs(
            g, pairs, k=2, mode=mode, max_nodes=40,
            rng_factory=lambda i: np.random.default_rng(55 + i),
        )
        assert (np.diff(result.node_offsets) == 40).any()
        assert_matches_oracle(
            g, pairs, result, k=2, mode=mode, max_nodes=40, rng_seed=55
        )


def sparse_graph_with_hubs(num_nodes, num_pairs, seed):
    """A sparse random graph with five 2,000-arc hubs, and pairs touching them."""
    gen = np.random.default_rng(seed)
    src = gen.integers(0, num_nodes, 2 * num_nodes)
    dst = gen.integers(0, num_nodes, 2 * num_nodes)
    hubs = gen.choice(num_nodes, 5, replace=False)
    src = np.concatenate([src, np.repeat(hubs, 2000)])
    dst = np.concatenate([dst, gen.integers(0, num_nodes, 5 * 2000)])
    edges = np.stack([src, dst], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    g = make_graph(num_nodes, edges)
    pairs = np.concatenate(
        [edges[: num_pairs // 2], random_pairs(g, num_pairs - num_pairs // 2 - 2, seed)]
    )
    pairs = np.concatenate([pairs, [[hubs[0], hubs[1]], [hubs[2], edges[0, 0]]]])
    return g, pairs


class TestMemory:
    @pytest.mark.parametrize("num_pairs, mib", [(64, 8), (2048, 64)])
    def test_footprint_follows_the_subgraphs_not_the_graph(self, num_pairs, mib):
        # 10^5 nodes, and each subgraph holds a few dozen nodes, so
        # extraction must allocate nothing sized links x N (a dense
        # 128 x 10^5 int32 distance matrix alone is ~49 MiB) or links x
        # selected nodes: 2,048 pairs select ~11k distinct nodes, whose
        # full (links, selected) int32 lookup table would be ~90 MiB.
        g, pairs = sparse_graph_with_hubs(100_000, num_pairs, seed=8)
        g.csr()  # cached on the graph; not part of extraction
        tracemalloc.start()
        try:
            extract_enclosing_subgraphs(
                g, pairs, k=2, mode="intersection", max_nodes=100,
                rng_factory=lambda i: np.random.default_rng(i),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, f"extraction peaked at {peak / 2**20:.1f} MiB"


class TestContract:
    def test_empty_batch(self, tiny_graph):
        result = extract_enclosing_subgraphs(tiny_graph, np.empty((0, 2), np.int64))
        assert result.num_links == 0
        assert result.node_map.size == 0 and result.edge_ids.size == 0
        assert result.dist_src is not None and result.dist_src.size == 0

    def test_without_label_distances(self, tiny_graph):
        result = extract_enclosing_subgraphs(
            tiny_graph, np.array([[0, 3]]), with_label_distances=False
        )
        assert result.dist_src is None and result.dist_dst is None

    def test_same_endpoints_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraphs(tiny_graph, np.array([[0, 1], [2, 2]]))

    def test_bad_shape_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraphs(tiny_graph, np.array([0, 1]))

    def test_out_of_range_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraphs(tiny_graph, np.array([[0, 99]]))

    def test_composite_key_overflow_rejected(self, tiny_graph):
        # Stage 2's order key spans links * (2k + 3) * N, past int64 here.
        with pytest.raises(ValueError, match="int64"):
            extract_enclosing_subgraphs(tiny_graph, np.array([[0, 1]]), k=2**62)

    def test_invalid_mode_and_k(self, tiny_graph):
        with pytest.raises(ValueError):
            extract_enclosing_subgraphs(tiny_graph, np.array([[0, 1]]), mode="both")
        with pytest.raises(ValueError):
            extract_enclosing_subgraphs(tiny_graph, np.array([[0, 1]]), k=0)
