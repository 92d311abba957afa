"""Graph container: validation, CSR queries, transforms."""

import numpy as np
import pytest

from repro.graph.structure import Graph
from tests.oracles import edge_ids_between, has_edge, neighbors


class TestConstruction:
    def test_validates_edge_index_shape(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([[0, 1, 2]]))

    def test_validates_node_range(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([[0], [5]]))

    def test_negative_num_nodes(self):
        with pytest.raises(ValueError):
            Graph(-1, np.empty((2, 0), dtype=np.int64))

    def test_default_types_zero(self, path_graph):
        assert path_graph.node_type.tolist() == [0] * 5
        assert path_graph.edge_type.tolist() == [0] * 8

    def test_attr_shape_validation(self):
        ei = np.array([[0], [1]])
        with pytest.raises(ValueError):
            Graph(2, ei, node_type=np.array([0]))
        with pytest.raises(ValueError):
            Graph(2, ei, edge_type=np.array([0, 1]))
        with pytest.raises(ValueError):
            Graph(2, ei, edge_attr=np.ones((2, 3)))
        with pytest.raises(ValueError):
            Graph(2, ei, node_features=np.ones((3, 2)))

    def test_empty_graph(self):
        g = Graph(0, np.empty((2, 0), dtype=np.int64))
        assert g.num_nodes == 0 and g.num_edges == 0
        assert g.num_node_types == 0 and g.num_edge_types == 0


class TestFromUndirected:
    def test_symmetric_arcs(self, tiny_graph):
        src, dst = tiny_graph.edge_index
        fwd = set(zip(src.tolist(), dst.tolist()))
        assert all((b, a) in fwd for a, b in fwd)
        assert tiny_graph.num_edges == 16  # 8 undirected edges

    def test_attrs_copied_to_both_arcs(self, tiny_graph):
        # Arc 2i and 2i+1 share type and attributes.
        et = tiny_graph.edge_type
        np.testing.assert_array_equal(et[0::2], et[1::2])
        ea = tiny_graph.edge_attr
        np.testing.assert_allclose(ea[0::2], ea[1::2])

    def test_rejects_bad_edge_shape(self):
        with pytest.raises(ValueError):
            Graph.from_undirected(3, np.array([0, 1]))


class TestQueries:
    """Graph queries; the adjacency lookups are the test helpers in ``tests.oracles``."""

    def test_neighbors(self, path_graph):
        assert sorted(neighbors(path_graph, 1).tolist()) == [0, 2]
        assert sorted(neighbors(path_graph, 0).tolist()) == [1]

    def test_degree(self, star_graph):
        deg = star_graph.degree()
        assert deg[0] == 5
        assert all(deg[1:] == 1)

    def test_has_edge(self, path_graph):
        assert has_edge(path_graph, 0, 1)
        assert not has_edge(path_graph, 0, 2)

    def test_edge_ids_between(self, tiny_graph):
        ids = edge_ids_between(tiny_graph, 0, 1)
        assert len(ids) == 1
        src, dst = tiny_graph.edge_index
        assert src[ids[0]] == 0 and dst[ids[0]] == 1

    def test_csr_edge_ids_roundtrip(self, tiny_graph):
        indptr, indices, edge_ids = tiny_graph.csr()
        src, dst = tiny_graph.edge_index
        for v in range(tiny_graph.num_nodes):
            for slot in range(indptr[v], indptr[v + 1]):
                eid = edge_ids[slot]
                assert src[eid] == v
                assert dst[eid] == indices[slot]

    def test_num_types(self, tiny_graph):
        assert tiny_graph.num_node_types == 2
        assert tiny_graph.num_edge_types == 3


class TestTransforms:
    def test_without_edges(self, tiny_graph):
        mask = np.zeros(tiny_graph.num_edges, dtype=bool)
        ids = edge_ids_between(tiny_graph, 0, 1)
        mask[ids] = True
        mask[edge_ids_between(tiny_graph, 1, 0)] = True
        pruned = tiny_graph.without_edges(mask)
        assert pruned.num_edges == tiny_graph.num_edges - 2
        assert not has_edge(pruned, 0, 1)
        assert pruned.edge_attr.shape[0] == pruned.num_edges

    def test_without_edges_mask_shape(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.without_edges(np.zeros(3, dtype=bool))

    def test_induced_subgraph(self, tiny_graph):
        sub, node_map = tiny_graph.induced_subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        np.testing.assert_array_equal(node_map, [0, 1, 2])
        # edges among {0,1,2}: 0-1, 1-2, 0-2 -> 6 arcs
        assert sub.num_edges == 6
        np.testing.assert_array_equal(sub.node_type, tiny_graph.node_type[:3])

    def test_induced_subgraph_preserves_order(self, tiny_graph):
        sub, node_map = tiny_graph.induced_subgraph(np.array([3, 0]))
        np.testing.assert_array_equal(node_map, [3, 0])
        np.testing.assert_array_equal(sub.node_type, tiny_graph.node_type[[3, 0]])

    def test_induced_subgraph_rejects_duplicates(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.induced_subgraph(np.array([0, 0]))
