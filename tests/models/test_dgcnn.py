"""DGCNN / AM-DGCNN end-to-end model behaviour."""

import numpy as np
import pytest

from tests.oracles import collate
from repro.graph.structure import Graph
from repro.models import AMDGCNN, VanillaDGCNN
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam


def make_batch(num_graphs=3, n=6, feat=5, edge_attr_dim=3, seed=0):
    gen = np.random.default_rng(seed)
    graphs, feats = [], []
    for i in range(num_graphs):
        edges = np.array([[j, (j + 1) % n] for j in range(n)] + [[0, n // 2]])
        if edge_attr_dim:
            etype = gen.integers(0, edge_attr_dim, size=len(edges))
            g = Graph.from_undirected(
                n, edges, edge_type=etype, edge_attr=np.eye(edge_attr_dim)[etype]
            )
        else:
            g = Graph.from_undirected(n, edges)
        graphs.append(g)
        feats.append(gen.normal(size=(n, feat)))
    return collate(graphs, feats, edge_attr_dim=edge_attr_dim)


class TestShapes:
    @pytest.mark.parametrize("Model,kw", [
        (VanillaDGCNN, {}),
        (AMDGCNN, dict(edge_dim=3, heads=2)),
    ])
    def test_logit_shape(self, Model, kw):
        batch = make_batch()
        model = Model(5, 4, hidden_dim=8, sort_k=4, rng=0, **kw)
        out = model(batch)
        assert out.shape == (3, 4)

    def test_center_pool_changes_width(self):
        m1 = VanillaDGCNN(5, 2, hidden_dim=8, sort_k=4, rng=0)
        m2_kwargs = dict(hidden_dim=8, sort_k=4, rng=0)
        from repro.models.dgcnn import DGCNNBackbone
        from repro.models.layers import GCNConv

        m2 = DGCNNBackbone(
            5, 2, lambda i, o, g: GCNConv(i, o, rng=g), center_pool=False, **m2_kwargs
        )
        assert m1.lin1.in_features > m2.lin1.in_features

    def test_small_sort_k_shrinks_conv_kernel(self):
        # sort_k so small the second conv kernel must shrink; still works.
        model = VanillaDGCNN(5, 2, hidden_dim=8, sort_k=5, rng=0)
        out = model(make_batch())
        assert out.shape == (3, 2)

    def test_sort_k_that_pools_to_nothing_raises(self):
        # sort_k=1 pools to length 0; fail at construction, naming sort_k.
        with pytest.raises(ValueError, match="sort_k=1"):
            VanillaDGCNN(5, 2, hidden_dim=8, sort_k=1, rng=0)
        assert VanillaDGCNN(5, 2, hidden_dim=8, sort_k=2, rng=0)(make_batch()).shape == (3, 2)

    def test_requires_one_conv_layer(self):
        with pytest.raises(ValueError):
            VanillaDGCNN(5, 2, num_conv_layers=0, rng=0)


class TestLearning:
    def test_overfits_tiny_labelled_batches(self):
        """Both models can drive training loss down on 2-class toy data."""
        batch = make_batch(num_graphs=8, seed=1)
        labels = np.array([0, 1] * 4)
        for Model, kw in [
            (VanillaDGCNN, {}),
            (AMDGCNN, dict(edge_dim=3, heads=2)),
        ]:
            model = Model(5, 2, hidden_dim=8, sort_k=4, dropout=0.0, rng=0, **kw)
            opt = Adam(model.parameters(), lr=5e-3)
            first = None
            for _ in range(60):
                opt.zero_grad()
                loss = cross_entropy(model(batch), labels)
                loss.backward()
                opt.step()
                if first is None:
                    first = loss.item()
            assert loss.item() < first * 0.7, type(Model).__name__

    def test_gradients_reach_every_parameter(self):
        batch = make_batch()
        model = AMDGCNN(5, 3, edge_dim=3, heads=2, hidden_dim=8, sort_k=4, dropout=0.0, rng=0)
        loss = cross_entropy(model(batch), np.array([0, 1, 2]))
        loss.backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_eval_mode_deterministic_with_dropout(self):
        batch = make_batch()
        model = VanillaDGCNN(5, 2, hidden_dim=8, sort_k=4, dropout=0.5, rng=0)
        model.eval()
        out1 = model(batch).data
        out2 = model(batch).data
        np.testing.assert_allclose(out1, out2)

    def test_train_mode_dropout_is_stochastic(self):
        batch = make_batch()
        model = VanillaDGCNN(5, 2, hidden_dim=8, sort_k=4, dropout=0.5, rng=0)
        model.train()
        out1 = model(batch).data
        out2 = model(batch).data
        assert not np.allclose(out1, out2)


class TestEdgeAttributePathway:
    def test_am_dgcnn_sensitive_to_edge_attrs(self):
        batch = make_batch()
        model = AMDGCNN(5, 2, edge_dim=3, heads=2, hidden_dim=8, sort_k=4, dropout=0.0, rng=0)
        out1 = model(batch).data
        batch.edge_attr[:] = np.roll(batch.edge_attr, 1, axis=1)
        out2 = model(batch).data
        assert not np.allclose(out1, out2)

    def test_vanilla_blind_to_edge_attrs(self):
        batch = make_batch()
        model = VanillaDGCNN(5, 2, hidden_dim=8, sort_k=4, dropout=0.0, rng=0)
        out1 = model(batch).data
        batch.edge_attr[:] = np.roll(batch.edge_attr, 1, axis=1)
        out2 = model(batch).data
        np.testing.assert_allclose(out1, out2)

    def test_am_dgcnn_without_edge_dim_is_plain_gat(self):
        batch = make_batch(edge_attr_dim=0)
        model = AMDGCNN(5, 2, edge_dim=0, heads=2, hidden_dim=8, sort_k=4, rng=0)
        assert model(batch).shape == (3, 2)


class TestRowInvariance:
    def test_tuned_primekg_logits_do_not_depend_on_batch_company(self):
        """A graph's logits are the same bits alone, in subsets or rotated.

        The tuned primekg AM-DGCNN (hidden 64, sort_k 110, 3 classes) on
        real SEAL subgraphs: every product, including the width-1 sort
        key, ``lin1``'s long one and the 3-wide head, must keep each
        graph's row independent of the graphs batched with it.
        """
        from repro.datasets import load_dataset
        from repro.experiments.config import TUNED_HPARAMS, build_model
        from repro.nn.tensor import no_grad
        from repro.seal import SEALDataset

        task = load_dataset("primekg", scale=0.12, rng=0, num_targets=40)
        ds = SEALDataset(task, rng=0)
        hp = TUNED_HPARAMS["primekg"]["am_dgcnn"]
        model = build_model(
            "am_dgcnn", ds.feature_width, task.num_classes, task.edge_attr_dim, hp, rng=0
        )
        assert (model.sort_k, model.lin2.out_features) == (110, 3)
        model.eval()

        def logits(indices):
            with no_grad():
                return model(ds.batch(indices)[0]).data

        idx = np.arange(24)
        full = logits(idx)
        for i in idx:
            np.testing.assert_array_equal(logits([i])[0], full[i], err_msg=f"graph {i} alone")
        for lo in range(0, len(idx), 3):
            np.testing.assert_array_equal(
                logits(idx[lo : lo + 3]), full[lo : lo + 3], err_msg=f"group at {lo}"
            )
        np.testing.assert_array_equal(logits(np.roll(idx, 5)), np.roll(full, 5, axis=0))
