"""Node attribute matrix assembly."""

import numpy as np
import pytest

from repro.graph.subgraph import extract_enclosing_subgraph
from repro.seal.features import FeatureConfig
from repro.seal.labeling import drnl_one_hot
from tests.oracles import build_node_features, drnl_labels


@pytest.fixture
def sub(tiny_graph):
    return extract_enclosing_subgraph(tiny_graph, 0, 3, k=2)


class TestWidth:
    def test_width_sums_blocks(self):
        cfg = FeatureConfig(num_node_types=4, use_drnl=True, max_drnl_label=10, explicit_dim=3)
        assert cfg.width == 4 + 11 + 3

    def test_width_with_embeddings(self):
        cfg = FeatureConfig(num_node_types=0, use_drnl=False, embeddings=np.ones((10, 8)))
        assert cfg.width == 8

    def test_empty_config_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig(num_node_types=0, use_drnl=False).width


class TestBuild:
    def test_type_block(self, sub):
        cfg = FeatureConfig(num_node_types=2, use_drnl=False, explicit_dim=2)
        feats = build_node_features(sub, cfg)
        assert feats.shape == (sub.num_nodes, 4)
        np.testing.assert_allclose(
            feats[:, :2].argmax(axis=1), sub.graph.node_type
        )

    def test_drnl_block_matches_labeling(self, sub):
        cfg = FeatureConfig(num_node_types=0, use_drnl=True, max_drnl_label=12)
        feats = build_node_features(sub, cfg)
        np.testing.assert_allclose(feats, drnl_one_hot(drnl_labels(sub), 12))

    def test_explicit_block(self, sub):
        cfg = FeatureConfig(num_node_types=0, use_drnl=False, explicit_dim=2)
        feats = build_node_features(sub, cfg)
        np.testing.assert_allclose(feats, sub.graph.node_features)

    def test_embedding_rows_indexed_by_original_id(self, sub, tiny_graph):
        emb = np.arange(tiny_graph.num_nodes * 3.0).reshape(-1, 3)
        cfg = FeatureConfig(num_node_types=0, use_drnl=False, explicit_dim=2, embeddings=emb)
        feats = build_node_features(sub, cfg)
        np.testing.assert_allclose(feats[:, 2:], emb[sub.node_map])

    def test_type_exceeds_width_raises(self, sub):
        cfg = FeatureConfig(num_node_types=1, use_drnl=True)
        with pytest.raises(ValueError):
            build_node_features(sub, cfg)

    def test_explicit_missing_raises(self, path_graph):
        from repro.graph.subgraph import extract_enclosing_subgraph

        s = extract_enclosing_subgraph(path_graph, 0, 2, k=2)
        cfg = FeatureConfig(num_node_types=0, use_drnl=False, explicit_dim=2)
        with pytest.raises(ValueError):
            build_node_features(s, cfg)

    def test_explicit_width_mismatch_raises(self, sub):
        cfg = FeatureConfig(num_node_types=0, use_drnl=False, explicit_dim=5)
        with pytest.raises(ValueError):
            build_node_features(sub, cfg)
