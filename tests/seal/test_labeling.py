"""DRNL labeling: closed form, symmetry, target/null conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.structure import Graph
from repro.seal.labeling import DEFAULT_MAX_LABEL, drnl_one_hot, drnl_value
from tests.oracles import drnl_labels, extract_enclosing_subgraph


class TestDrnlValue:
    def test_closed_form_small_values(self):
        # D(x,y) = 1 + min + (d//2)(d//2 + d%2 - 1), d = x+y.
        assert drnl_value(1, 1) == 2
        assert drnl_value(1, 2) == 3
        assert drnl_value(2, 2) == 5
        assert drnl_value(1, 3) == 4
        assert drnl_value(2, 3) == 7
        assert drnl_value(3, 3) == 10

    def test_symmetry(self):
        for x in range(6):
            for y in range(6):
                assert drnl_value(x, y) == drnl_value(y, x)

    def test_vectorized(self):
        out = drnl_value(np.array([1, 2]), np.array([1, 2]))
        np.testing.assert_array_equal(out, [2, 5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            drnl_value(-1, 2)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_injective_over_unordered_pairs(self, x1, y1, x2, y2):
        # Injectivity holds on the formula's actual domain x, y >= 1:
        # distance 0 only occurs for the target nodes themselves, which
        # bypass the formula and receive the special label 1.
        p1 = tuple(sorted((x1, y1)))
        p2 = tuple(sorted((x2, y2)))
        v1, v2 = int(drnl_value(*p1)), int(drnl_value(*p2))
        if p1 != p2:
            assert v1 != v2
        else:
            assert v1 == v2


class TestDrnlLabels:
    def test_targets_get_label_one(self, tiny_graph):
        sub = extract_enclosing_subgraph(tiny_graph, 0, 3, k=2)
        labels = drnl_labels(sub)
        assert labels[sub.src] == 1
        assert labels[sub.dst] == 1

    def test_unreachable_gets_zero(self):
        # Components {0,1}, {2,3}; subgraph of (0, 2) contains both sides
        # but no path between them once each side is isolated.
        g = Graph.from_undirected(4, np.array([[0, 1], [2, 3]]))
        sub = extract_enclosing_subgraph(g, 0, 2, k=2)
        labels = drnl_labels(sub)
        # Nodes reachable from only one target are null-labeled.
        non_targets = [i for i in range(sub.num_nodes) if i not in (sub.src, sub.dst)]
        for i in non_targets:
            assert labels[i] == 0

    def test_common_neighbor_label(self):
        # Triangle 0-1, 1-2, 0-2: extract (0, 1); node 2 has x=y=1 -> D=2.
        g = Graph.from_undirected(3, np.array([[0, 1], [1, 2], [0, 2]]))
        sub = extract_enclosing_subgraph(g, 0, 1, k=2)
        labels = drnl_labels(sub)
        two = [i for i in range(3) if sub.node_map[i] == 2][0]
        assert labels[two] == 2

    def test_distances_exclude_other_target(self):
        # Path 0-2-1 plus 0-3-4-1: for node 3, the path to target b=1 that
        # avoids target a=0 has length 2 (3-4-1); through 0 it would be
        # longer anyway. For node 2 (common neighbor) x=y=1 -> label 2.
        g = Graph.from_undirected(5, np.array([[0, 2], [2, 1], [0, 3], [3, 4], [4, 1]]))
        sub = extract_enclosing_subgraph(g, 0, 1, k=3)
        labels = drnl_labels(sub)
        idx = {int(orig): i for i, orig in enumerate(sub.node_map)}
        assert labels[idx[2]] == drnl_value(1, 1)
        assert labels[idx[3]] == drnl_value(1, 2)
        assert labels[idx[4]] == drnl_value(2, 1)


class TestDrnlOneHot:
    def test_width_and_positions(self):
        out = drnl_one_hot(np.array([0, 1, 5]), max_label=6)
        assert out.shape == (3, 7)
        np.testing.assert_allclose(out.argmax(axis=1), [0, 1, 5])

    def test_clamps_large_labels(self):
        out = drnl_one_hot(np.array([100]), max_label=10)
        assert out[0, 10] == 1.0

    def test_default_max_label(self):
        out = drnl_one_hot(np.array([1]))
        assert out.shape == (1, DEFAULT_MAX_LABEL + 1)
