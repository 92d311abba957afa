"""Saved and mmap-backed graphs: round-trips, bit-identity, pickling.

``Graph.save`` / ``Graph.open`` are the contract the loader/serve layers
lean on:

* a saved graph reopens (mmap or full) with bit-identical arrays *and*
  bit-identical CSR — derived structure included;
* mmap arrays are read-only (a write is a bug, not a silent corruption);
* an mmap-backed ``Graph`` pickles to its *path* (bytes, not arrays) —
  the property that makes worker spawn payloads O(1);
* derived graphs (``without_edges`` / ``induced_subgraph``) built from an
  mmap graph equal their in-memory counterparts and own fresh writable
  arrays with an independently computed CSR.
"""

import pickle

import numpy as np
import pytest

from repro.graph.generators import stochastic_block_edges
from repro.graph.structure import Graph, is_saved_graph
from tests.oracles import edge_ids_between, neighbors


@pytest.fixture()
def graph() -> Graph:
    edges = stochastic_block_edges([40, 40, 40], 0.2, 0.02, rng=0)
    etype = np.arange(len(edges)) % 3
    return Graph.from_undirected(
        120,
        edges,
        node_type=np.arange(120) % 4,
        edge_type=etype,
        edge_attr=np.eye(3)[etype],
        node_features=np.random.default_rng(1).normal(size=(120, 5)),
    )


def assert_graphs_equal(a: Graph, b: Graph) -> None:
    assert a.num_nodes == b.num_nodes and a.num_edges == b.num_edges
    np.testing.assert_array_equal(a.edge_index, b.edge_index)
    np.testing.assert_array_equal(a.node_type, b.node_type)
    np.testing.assert_array_equal(a.edge_type, b.edge_type)
    if a.edge_attr is None:
        assert b.edge_attr is None
    else:
        np.testing.assert_array_equal(a.edge_attr, b.edge_attr)
    if a.node_features is None:
        assert b.node_features is None
    else:
        np.testing.assert_array_equal(a.node_features, b.node_features)
    for x, y in zip(a.csr(), b.csr()):
        np.testing.assert_array_equal(x, y)


class TestSaveOpen:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_round_trip_is_bit_identical(self, graph, tmp_path, mmap):
        graph.save(tmp_path)
        reopened = Graph.open(tmp_path, mmap=mmap)
        assert reopened.is_mmap is mmap
        assert_graphs_equal(graph, reopened)

    def test_round_trip_without_optional_arrays(self, tmp_path):
        g = Graph.from_undirected(6, np.array([[0, 1], [1, 2], [2, 3]]))
        g.save(tmp_path)
        r = Graph.open(tmp_path)
        assert r.edge_attr is None and r.node_features is None
        assert_graphs_equal(g, r)

    def test_saved_csr_is_the_precomputed_one(self, graph, tmp_path):
        # save() persists the CSR so reopen never rebuilds it: the arrays
        # loaded back must be the stable-argsort construction bit for bit.
        indptr, indices, order = graph.csr()
        graph.save(tmp_path)
        saved = Graph.open(tmp_path, mmap=True).csr()
        assert all(isinstance(a, np.memmap) for a in saved)  # loaded, not rebuilt
        np.testing.assert_array_equal(saved[0], indptr)
        np.testing.assert_array_equal(saved[1], indices)
        np.testing.assert_array_equal(saved[2], order)

    def test_meta_versioned(self, graph, tmp_path):
        import json

        graph.save(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert (meta["format"], meta["version"]) == ("repro-graph-storage", 1)
        assert meta["num_nodes"] == graph.num_nodes

    def test_open_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Graph.open(tmp_path / "nope")

    def test_failed_save_over_a_saved_graph_leaves_it_incomplete(
        self, graph, tmp_path, monkeypatch
    ):
        # A save that dies part-way must not leave the earlier manifest
        # vouching for a mix of old and new arrays.
        Graph.from_undirected(120, np.array([[0, 1], [1, 2]])).save(tmp_path)
        real_save = np.save
        writes = []

        def save(file, arr, *args, **kwargs):
            writes.append(file)
            if len(writes) == 3:
                raise OSError("disk full")
            return real_save(file, arr, *args, **kwargs)

        monkeypatch.setattr(np, "save", save)
        with pytest.raises(OSError, match="disk full"):
            graph.save(tmp_path)
        monkeypatch.undo()
        assert not is_saved_graph(tmp_path)
        with pytest.raises(FileNotFoundError):
            Graph.open(tmp_path)


class TestMmapSemantics:
    def test_mmap_arrays_are_read_only(self, graph, tmp_path):
        graph.save(tmp_path)
        g = Graph.open(tmp_path, mmap=True)
        with pytest.raises(ValueError):
            g.edge_index[0, 0] = 99
        with pytest.raises(ValueError):
            g.node_type[0] = 99
        with pytest.raises(ValueError):
            g.csr()[0][0] = 99

    def test_mmap_graph_pickles_by_path(self, graph, tmp_path):
        graph.save(tmp_path)
        g = Graph.open(tmp_path, mmap=True)
        payload = pickle.dumps(g)
        # The point of path-pickling: the payload must not embed the arrays.
        assert len(payload) < 1024
        clone = pickle.loads(payload)
        assert clone.is_mmap
        assert_graphs_equal(g, clone)

    def test_in_memory_graph_pickles_by_value(self, graph):
        clone = pickle.loads(pickle.dumps(graph))
        assert not clone.is_mmap
        assert_graphs_equal(graph, clone)

    def test_save_then_reopen_marks_path(self, graph, tmp_path):
        # Saving leaves an in-memory graph in memory; only an mmap open
        # backs a graph by its directory, and that is what pickles.
        graph.save(tmp_path)
        assert not graph.is_mmap
        assert str(tmp_path).encode() not in pickle.dumps(graph)
        assert not Graph.open(tmp_path, mmap=False).is_mmap
        g = Graph.open(tmp_path, mmap=True)
        assert g.is_mmap and str(tmp_path).encode() in pickle.dumps(g)


class TestDerivedGraphsFromMmap:
    """Satellite: graph surgery on an mmap-opened graph must behave
    exactly like on the in-memory original — fresh writable arrays,
    independently recomputed CSR, no read-only leakage."""

    @pytest.fixture()
    def pair(self, graph, tmp_path):
        graph.save(tmp_path)
        return graph, Graph.open(tmp_path, mmap=True)

    def test_without_edges_matches_in_memory(self, pair):
        mem, mm = pair
        drop = np.zeros(mem.num_edges, dtype=bool)
        drop[::7] = True
        a, b = mem.without_edges(drop), mm.without_edges(drop)
        assert_graphs_equal(a, b)
        # Derived graph owns fresh in-memory arrays: writable, no path.
        assert not b.is_mmap
        b.edge_index[0, 0] = b.edge_index[0, 0]  # must not raise

    def test_induced_subgraph_matches_in_memory(self, pair):
        mem, mm = pair
        nodes = np.arange(0, mem.num_nodes, 3)
        a, amap = mem.induced_subgraph(nodes)
        b, bmap = mm.induced_subgraph(nodes)
        np.testing.assert_array_equal(amap, bmap)
        assert_graphs_equal(a, b)
        assert not b.is_mmap
        b.node_type[0] = b.node_type[0]  # fresh arrays are writable

    def test_edge_ids_between_matches_in_memory(self, pair):
        mem, mm = pair
        for u, v in mem.edge_index[:, :25].T:
            np.testing.assert_array_equal(
                edge_ids_between(mem, int(u), int(v)),
                edge_ids_between(mm, int(u), int(v)),
            )
        # And a pair with no arc between them on both sides.
        assert edge_ids_between(mm, 0, 0).size == edge_ids_between(mem, 0, 0).size

    def test_derived_csr_is_fresh_not_inherited(self, pair):
        # CSR cache invalidation: the derived graph's CSR must describe
        # the *derived* edge set, not alias the parent's persisted CSR.
        _, mm = pair
        drop = np.zeros(mm.num_edges, dtype=bool)
        drop[: mm.num_edges // 2] = True
        parent_indptr = mm.csr()[0]
        sub = mm.without_edges(drop)
        indptr, indices, order = sub.csr()
        assert indptr[-1] == sub.num_edges != parent_indptr[-1]
        assert indices.max(initial=-1) < sub.num_nodes
        indptr[0] = indptr[0]  # freshly computed, hence writable

    def test_traversal_matches_in_memory(self, pair):
        mem, mm = pair
        np.testing.assert_array_equal(
            sorted(neighbors(mem, 5)), sorted(neighbors(mm, 5))
        )
        np.testing.assert_array_equal(mem.degree(), mm.degree())
