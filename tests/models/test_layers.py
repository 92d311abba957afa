"""GCNConv / GATConv: formulas, shapes, gradients, edge-attr sensitivity."""

import numpy as np
import pytest

from repro.models.layers import GATConv, GCNConv
from tests.gradcheck import gradcheck
from repro.nn.tensor import Tensor


def randn(*shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


@pytest.fixture
def small_graph():
    """4-node symmetric edge list with 2-d edge attrs."""
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3]])
    ei = np.concatenate([edges.T, edges.T[::-1]], axis=1)
    ea = np.eye(2)[np.array([0, 1, 0, 1, 0, 1, 0, 1])]
    return ei, ea


class TestGCNConv:
    def test_matches_dense_formula(self, small_graph):
        ei, _ = small_graph
        conv = GCNConv(3, 2, rng=0)
        x = randn(4, 3)
        out = conv(Tensor(x), ei).data

        # Dense reference: D^-1/2 (A+I) D^-1/2 X W + b.
        a = np.zeros((4, 4))
        a[ei[0], ei[1]] = 1.0
        a += np.eye(4)
        d = a.sum(axis=1)
        norm = np.diag(d**-0.5) @ a @ np.diag(d**-0.5)
        ref = norm @ x @ conv.weight.data + conv.bias.data
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_ignores_edge_attr(self, small_graph):
        ei, ea = small_graph
        conv = GCNConv(3, 2, rng=0)
        x = Tensor(randn(4, 3))
        out1 = conv(x, ei, ea).data
        out2 = conv(x, ei, np.roll(ea, 1, axis=0)).data
        np.testing.assert_allclose(out1, out2)

    def test_gradients(self, small_graph):
        ei, _ = small_graph
        conv = GCNConv(3, 2, rng=0)
        x = Tensor(randn(4, 3), requires_grad=True)
        gradcheck(lambda a, w, b: (conv(a, ei) ** 2).sum(), [x, conv.weight, conv.bias])

    def test_no_bias(self, small_graph):
        ei, _ = small_graph
        conv = GCNConv(3, 2, bias=False, rng=0)
        assert conv.bias is None
        assert conv(Tensor(np.zeros((4, 3))), ei).data.sum() == 0.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            GCNConv(0, 2)


class TestGATConv:
    def test_output_shape_multihead(self, small_graph):
        ei, ea = small_graph
        conv = GATConv(3, 8, heads=2, edge_dim=2, rng=0)
        out = conv(Tensor(randn(4, 3)), ei, ea)
        assert out.shape == (4, 8)

    def test_edge_attr_sensitivity(self, small_graph):
        """The core paper mechanism: GAT output depends on edge attrs."""
        ei, ea = small_graph
        conv = GATConv(3, 4, heads=2, edge_dim=2, rng=0)
        x = Tensor(randn(4, 3))
        out1 = conv(x, ei, ea).data
        ea_swapped = ea[:, ::-1].copy()  # flip the attribute channels
        out2 = conv(x, ei, ea_swapped).data
        assert not np.allclose(out1, out2)

    def test_edge_blind_when_edge_dim_zero(self, small_graph):
        ei, ea = small_graph
        conv = GATConv(3, 4, heads=2, edge_dim=0, rng=0)
        x = Tensor(randn(4, 3))
        out1 = conv(x, ei, None).data
        out2 = conv(x, ei, None).data
        np.testing.assert_allclose(out1, out2)

    def test_edge_in_message_false_blind_on_uniform_features(self, small_graph):
        """Attention-only edge usage cancels on identical node features.

        This is the failure mode motivating edge_in_message=True (see
        GATConv docstring): softmax weights over identical messages sum
        to the same output regardless of the logits.
        """
        ei, ea = small_graph
        conv = GATConv(3, 4, heads=1, edge_dim=2, edge_in_message=False, add_loops=False, rng=0)
        x = Tensor(np.ones((4, 3)))  # identical features everywhere
        out1 = conv(x, ei, ea).data
        out2 = conv(x, ei, 2.0 * ea).data  # any attr change is invisible
        np.testing.assert_allclose(out1, out2, atol=1e-10)
        # With edge_in_message=True the same perturbation IS visible.
        conv2 = GATConv(3, 4, heads=1, edge_dim=2, edge_in_message=True, add_loops=False, rng=0)
        out3 = conv2(x, ei, ea).data
        out4 = conv2(x, ei, 2.0 * ea).data
        assert not np.allclose(out3, out4)

    def test_gradients_with_edges(self, small_graph):
        ei, ea = small_graph
        conv = GATConv(2, 4, heads=2, edge_dim=2, rng=0)
        x = Tensor(randn(4, 2), requires_grad=True)
        params = [x, conv.weight, conv.att_src, conv.att_dst, conv.edge_weight, conv.att_edge, conv.bias]
        gradcheck(lambda *args: (conv(args[0], ei, ea) ** 2).sum(), params)

    def test_gradients_without_edges(self, small_graph):
        ei, _ = small_graph
        conv = GATConv(2, 4, heads=2, rng=0)
        x = Tensor(randn(4, 2), requires_grad=True)
        gradcheck(
            lambda *args: (conv(args[0], ei) ** 2).sum(),
            [x, conv.weight, conv.att_src, conv.att_dst, conv.bias],
        )

    def test_isolated_node_gets_self_loop_message(self, small_graph):
        ei, ea = small_graph
        conv = GATConv(3, 4, heads=1, edge_dim=2, rng=0)
        # Node 4 exists but has no arcs.
        x = Tensor(randn(5, 3))
        out = conv(x, ei, ea).data
        assert np.abs(out[4]).sum() > 0  # self-loop keeps it alive

    def test_edge_attr_width_mismatch(self, small_graph):
        ei, ea = small_graph
        conv = GATConv(3, 4, edge_dim=5, rng=0)
        with pytest.raises(ValueError):
            conv(Tensor(randn(4, 3)), ei, ea)

    def test_missing_edge_attr_defaults_to_zeros(self, small_graph):
        ei, _ = small_graph
        conv = GATConv(3, 4, edge_dim=2, rng=0)
        out = conv(Tensor(randn(4, 3)), ei, None)
        assert out.shape == (4, 4)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            GATConv(3, 5, heads=2)
        with pytest.raises(ValueError):
            GATConv(3, 4, heads=0)

    def test_attention_normalized_per_destination(self, small_graph):
        """Manual check: recompute attention and compare aggregation."""
        ei, ea = small_graph
        conv = GATConv(3, 4, heads=1, edge_dim=2, add_loops=False, edge_in_message=False, rng=0)
        x = randn(4, 3)
        out = conv(Tensor(x), ei, ea).data

        h = x @ conv.weight.data  # (4, 4)
        asrc = (h.reshape(4, 1, 4) * conv.att_src.data).sum(-1).ravel()
        adst = (h.reshape(4, 1, 4) * conv.att_dst.data).sum(-1).ravel()
        he = ea @ conv.edge_weight.data
        aedge = (he.reshape(-1, 1, 4) * conv.att_edge.data).sum(-1).ravel()
        logits = asrc[ei[0]] + adst[ei[1]] + aedge
        logits = np.where(logits > 0, logits, 0.2 * logits)
        ref = np.zeros((4, 4))
        for dst in range(4):
            mask = ei[1] == dst
            w = np.exp(logits[mask] - logits[mask].max())
            w /= w.sum()
            ref[dst] = (w[:, None] * h[ei[0][mask]]).sum(axis=0)
        np.testing.assert_allclose(out, ref + conv.bias.data, atol=1e-10)
