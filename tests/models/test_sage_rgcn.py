"""SAGEConv and RGCNConv extension layers."""

import numpy as np
import pytest

from tests.oracles import collate
from repro.graph.structure import Graph
from repro.models.rgcn import RGCNConv, RGCNDGCNN
from repro.models.sage import SAGEConv
from tests.gradcheck import gradcheck
from repro.nn.tensor import Tensor


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.fixture
def small_graph():
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    ei = np.concatenate([edges.T, edges.T[::-1]], axis=1)
    rel = np.array([0, 1, 2, 0, 0, 1, 2, 0])
    ea = np.eye(3)[rel]
    return ei, ea


class TestSAGEConv:
    def test_matches_manual_mean_aggregation(self, small_graph):
        ei, _ = small_graph
        conv = SAGEConv(3, 2, rng=0)
        x = randn(4, 3)
        out = conv(Tensor(x), ei).data
        ref = np.zeros((4, 2))
        for i in range(4):
            nbrs = ei[0][ei[1] == i]
            mean = x[nbrs].mean(axis=0)
            ref[i] = x[i] @ conv.weight_self.data + mean @ conv.weight_nbr.data
        np.testing.assert_allclose(out, ref + conv.bias.data, atol=1e-10)

    def test_ignores_edge_attr(self, small_graph):
        ei, ea = small_graph
        conv = SAGEConv(3, 2, rng=0)
        x = Tensor(randn(4, 3))
        np.testing.assert_allclose(
            conv(x, ei, ea).data, conv(x, ei, 2 * ea).data
        )

    def test_gradients(self, small_graph):
        ei, _ = small_graph
        conv = SAGEConv(2, 3, rng=0)
        x = Tensor(randn(4, 2), requires_grad=True)
        gradcheck(
            lambda *a: (conv(a[0], ei) ** 2).sum(),
            [x, conv.weight_self, conv.weight_nbr, conv.bias],
        )

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            SAGEConv(0, 2)


class TestRGCNConv:
    def test_output_shape(self, small_graph):
        ei, ea = small_graph
        conv = RGCNConv(3, 4, num_relations=3, num_bases=2, rng=0)
        out = conv(Tensor(randn(4, 3)), ei, ea)
        assert out.shape == (4, 4)

    def test_relation_sensitivity(self, small_graph):
        """R-GCN output changes when relations are permuted (the point)."""
        ei, ea = small_graph
        conv = RGCNConv(3, 4, num_relations=3, num_bases=3, rng=0)
        x = Tensor(randn(4, 3))
        out1 = conv(x, ei, ea).data
        out2 = conv(x, ei, np.roll(ea, 1, axis=1)).data
        assert not np.allclose(out1, out2)

    def test_uniform_mixture_without_attrs(self, small_graph):
        ei, _ = small_graph
        conv = RGCNConv(3, 4, num_relations=3, rng=0)
        out = conv(Tensor(randn(4, 3)), ei, None)
        assert out.shape == (4, 4)
        assert np.isfinite(out.data).all()

    def test_gradients(self, small_graph):
        ei, ea = small_graph
        conv = RGCNConv(2, 3, num_relations=3, num_bases=2, rng=0)
        x = Tensor(randn(4, 2), requires_grad=True)
        gradcheck(
            lambda *a: (conv(a[0], ei, ea) ** 2).sum(),
            [x, conv.weight_self, conv.bases, conv.comb, conv.bias],
        )

    def test_attr_width_mismatch(self, small_graph):
        ei, ea = small_graph
        conv = RGCNConv(3, 4, num_relations=7, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(randn(4, 3)), ei, ea)

    def test_bases_clamped_to_relations(self):
        conv = RGCNConv(3, 4, num_relations=2, num_bases=10, rng=0)
        assert conv.num_bases == 2

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            RGCNConv(3, 4, num_relations=0)


class TestRGCNDGCNN:
    def test_forward_and_backward(self):
        gen = np.random.default_rng(0)
        graphs, feats = [], []
        for _ in range(3):
            edges = np.array([[j, (j + 1) % 6] for j in range(6)])
            rel = gen.integers(0, 3, size=len(edges))
            g = Graph.from_undirected(6, edges, edge_type=rel, edge_attr=np.eye(3)[rel])
            graphs.append(g)
            feats.append(gen.normal(size=(6, 5)))
        batch = collate(graphs, feats, edge_attr_dim=3)
        model = RGCNDGCNN(
            5, 2, num_relations=3, hidden_dim=8, num_conv_layers=2, sort_k=4,
            dropout=0.0, rng=0,
        )
        out = model(batch)
        assert out.shape == (3, 2)
        from repro.nn.losses import cross_entropy

        cross_entropy(out, np.array([0, 1, 0])).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_invalid_relations(self):
        with pytest.raises(ValueError):
            RGCNDGCNN(5, 2, num_relations=0)
