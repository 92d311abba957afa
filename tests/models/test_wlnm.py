"""Weisfeiler-Lehman Neural Machine baseline."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_cora_like
from repro.graph.bulk import extract_enclosing_subgraphs
from repro.graph.structure import Graph
from repro.metrics import roc_auc
from repro.models.wlnm import WLNMClassifier, encode_subgraph, wl_order


def extract(graph, u, v):
    """``(edge_index, dist_a, dist_b)`` of one pair's k=2 enclosing subgraph."""
    subs = extract_enclosing_subgraphs(graph, np.array([[u, v]]), k=2)
    return subs.edge_index, subs.dist_src, subs.dist_dst


@pytest.fixture
def sub(tiny_graph):
    return extract(tiny_graph, 0, 3)


class TestWlOrder:
    def test_targets_first(self, sub):
        order = wl_order(*sub)
        assert order[0] == 0
        assert order[1] == 1

    def test_is_permutation(self, sub):
        order = wl_order(*sub)
        assert sorted(order.tolist()) == list(range(sub[1].shape[0]))

    def test_deterministic(self, sub):
        np.testing.assert_array_equal(wl_order(*sub), wl_order(*sub))


class TestEncodeSubgraph:
    def test_vector_length(self, sub):
        vec = encode_subgraph(*sub, k=5)
        assert vec.shape == (5 * 4 // 2 - 1,)
        assert set(np.unique(vec)) <= {0.0, 1.0}

    def test_target_link_slot_removed(self, tiny_graph):
        # (0, 1) are adjacent in tiny_graph but the subgraph strips the
        # link; the encoding must not contain it either way because the
        # (0,1) slot is deleted.
        vec = encode_subgraph(*extract(tiny_graph, 0, 1), k=4)
        assert vec.shape == (4 * 3 // 2 - 1,)

    def test_padding_when_small(self):
        g = Graph.from_undirected(3, np.array([[0, 1], [1, 2]]))
        vec = encode_subgraph(*extract(g, 0, 2), k=8)
        assert vec.shape == (8 * 7 // 2 - 1,)

    def test_invalid_k(self, sub):
        with pytest.raises(ValueError):
            encode_subgraph(*sub, k=1)


class TestWLNMClassifier:
    def test_learns_topological_existence_task(self):
        """WLNM handles the topology-driven Cora-like task (its home turf)."""
        task = load_cora_like(scale=0.2, num_targets=160, rng=0)
        tr = np.arange(120)
        te = np.arange(120, 160)
        clf = WLNMClassifier(num_classes=2, k=10, epochs=40, rng=0)
        clf.fit(task, tr)
        probs = clf.predict_proba(task, te)
        assert probs.shape == (40, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        auc = roc_auc(task.labels[te], probs[:, 1])
        assert auc > 0.6  # clearly above random on topology

    def test_encoding_does_not_depend_on_the_batch(self):
        # One tie-break stream per link index: under a tight cap a link
        # encodes the same alone, reordered or in any batch.
        task = load_cora_like(scale=0.2, num_targets=40, rng=0)
        task = dataclasses.replace(task, max_subgraph_nodes=12)
        clf = WLNMClassifier(num_classes=2, k=10, rng=3)
        idx = np.arange(40)
        whole = clf._encode_links(task, idx)
        np.testing.assert_array_equal(clf._encode_links(task, idx[::-1]), whole[::-1])
        np.testing.assert_array_equal(clf._encode_links(task, idx[5:9]), whole[5:9])

    def test_predict_before_fit(self):
        task = load_cora_like(scale=0.2, num_targets=20, rng=0)
        clf = WLNMClassifier(num_classes=2)
        with pytest.raises(RuntimeError):
            clf.predict(task, np.arange(5))

    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            WLNMClassifier(num_classes=1)

    def test_input_dim(self):
        assert WLNMClassifier(num_classes=2, k=10).input_dim == 44
