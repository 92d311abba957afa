"""Planted-KG generator: validation, determinism, planted-signal checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import (
    PlantedKGConfig,
    generate_planted_kg,
    num_role_pairs,
    role_pair_index,
)
from tests.oracles import edge_ids_between, has_edge


def base_config(**overrides):
    cfg = PlantedKGConfig(
        num_nodes=300,
        num_node_types=3,
        num_roles=3,
        num_relations=18,
        avg_degree=6.0,
        num_targets=80,
        num_classes=6,
        class_rule="pair",
        name="test-kg",
    )
    return dataclasses.replace(cfg, **overrides)


class TestRolePairIndex:
    def test_enumeration_order(self):
        # R=3: (0,0)=0 (0,1)=1 (0,2)=2 (1,1)=3 (1,2)=4 (2,2)=5.
        assert role_pair_index(0, 0, 3) == 0
        assert role_pair_index(0, 1, 3) == 1
        assert role_pair_index(2, 0, 3) == 2
        assert role_pair_index(1, 1, 3) == 3
        assert role_pair_index(2, 1, 3) == 4
        assert role_pair_index(2, 2, 3) == 5

    @given(st.integers(2, 8))
    @settings(max_examples=10, deadline=None)
    def test_bijection_over_unordered_pairs(self, r):
        seen = set()
        for i in range(r):
            for j in range(i, r):
                idx = int(role_pair_index(i, j, r))
                assert 0 <= idx < num_role_pairs(r)
                seen.add(idx)
        assert len(seen) == num_role_pairs(r)

    def test_symmetry_vectorized(self):
        a = np.array([0, 1, 2])
        b = np.array([2, 1, 0])
        np.testing.assert_array_equal(
            role_pair_index(a, b, 3), role_pair_index(b, a, 3)
        )


class TestConfigValidation:
    def test_pair_rule_class_count(self):
        with pytest.raises(ValueError):
            base_config(num_classes=5)

    def test_relation_rule_class_count(self):
        with pytest.raises(ValueError):
            base_config(class_rule="relation", num_classes=6)

    def test_relations_cover_groups(self):
        with pytest.raises(ValueError):
            base_config(num_relations=3)

    def test_unknown_modes(self):
        with pytest.raises(ValueError):
            base_config(edge_attr_mode="wat")
        with pytest.raises(ValueError):
            base_config(node_feature_mode="wat")
        with pytest.raises(ValueError):
            base_config(class_rule="wat")

    def test_assortativity_range(self):
        with pytest.raises(ValueError):
            base_config(assortativity=1.5)

    def test_edge_attr_dim(self):
        assert base_config().edge_attr_dim == 18
        assert base_config(edge_attr_mode="signed").edge_attr_dim == 2
        assert base_config(edge_attr_mode="none").edge_attr_dim == 0


class TestGeneration:
    def test_deterministic_per_seed(self):
        a = generate_planted_kg(base_config(), rng=5)
        b = generate_planted_kg(base_config(), rng=5)
        np.testing.assert_array_equal(a.graph.edge_index, b.graph.edge_index)
        np.testing.assert_array_equal(a.target_labels, b.target_labels)
        np.testing.assert_array_equal(a.roles, b.roles)

    def test_different_seeds_differ(self):
        a = generate_planted_kg(base_config(), rng=1)
        b = generate_planted_kg(base_config(), rng=2)
        assert not np.array_equal(a.target_labels, b.target_labels)

    def test_target_pairs_distinct_nodes(self):
        kg = generate_planted_kg(base_config(), rng=0)
        assert (kg.target_pairs[:, 0] != kg.target_pairs[:, 1]).all()
        canon = {(min(u, v), max(u, v)) for u, v in kg.target_pairs}
        assert len(canon) == len(kg.target_pairs)

    def test_labels_in_range(self):
        kg = generate_planted_kg(base_config(), rng=0)
        assert kg.target_labels.min() >= 0
        assert kg.target_labels.max() < 6

    def test_pair_rule_labels_match_roles_up_to_noise(self):
        cfg = base_config(label_noise=0.0)
        kg = generate_planted_kg(cfg, rng=0)
        expected = role_pair_index(
            kg.roles[kg.target_pairs[:, 0]], kg.roles[kg.target_pairs[:, 1]], 3
        )
        np.testing.assert_array_equal(kg.target_labels, expected)

    def test_target_links_inserted_as_edges(self):
        kg = generate_planted_kg(base_config(), rng=0)
        for u, v in kg.target_pairs[:10]:
            assert has_edge(kg.graph, int(u), int(v))
            assert has_edge(kg.graph, int(v), int(u))

    def test_type_restriction(self):
        cfg = base_config(target_type_pair=(0, 1))
        kg = generate_planted_kg(cfg, rng=0)
        # node_type stored on the graph; pairs must honor the restriction.
        t = kg.graph.node_type
        types = {(t[u], t[v]) for u, v in kg.target_pairs}
        assert types <= {(0, 1), (1, 0)}

    def test_signed_attrs_encode_agreement(self):
        cfg = base_config(edge_attr_mode="signed")
        kg = generate_planted_kg(cfg, rng=0)
        src, dst = kg.graph.edge_index
        agree = kg.roles[src] == kg.roles[dst]
        np.testing.assert_array_equal(kg.graph.edge_attr[:, 0] == 1.0, agree)

    def test_onehot_attrs_match_edge_type(self):
        kg = generate_planted_kg(base_config(), rng=0)
        np.testing.assert_array_equal(
            kg.graph.edge_attr.argmax(axis=1), kg.graph.edge_type
        )

    def test_noisy_role_features(self):
        cfg = base_config(node_feature_mode="noisy_role", node_feature_noise=0.2)
        kg = generate_planted_kg(cfg, rng=0)
        feats = kg.graph.node_features
        assert feats.shape == (300, 3)
        agreement = (feats.argmax(axis=1) == kg.roles).mean()
        assert agreement > 0.75  # 0.8 + noise hits the true role sometimes

    def test_degree_skew_creates_role_degree_gradient(self):
        cfg = base_config(degree_skew=3.0, assortativity=0.0)
        kg = generate_planted_kg(cfg, rng=0)
        deg = kg.graph.degree()
        means = [deg[kg.roles == r].mean() for r in range(3)]
        assert means[2] > means[0]

    def test_existence_rule_positives_are_edges(self):
        cfg = base_config(class_rule="existence", num_classes=2)
        kg = generate_planted_kg(cfg, rng=0)
        pos = kg.target_pairs[kg.target_labels == 1]
        neg = kg.target_pairs[kg.target_labels == 0]
        assert len(pos) > 0 and len(neg) > 0
        for u, v in pos[:10]:
            assert has_edge(kg.graph, int(u), int(v))
        for u, v in neg[:10]:
            assert not has_edge(kg.graph, int(u), int(v))

    def test_stats_keys(self):
        stats = generate_planted_kg(base_config(), rng=0).stats()
        assert stats["num_nodes"] == 300
        assert stats["num_classes"] == 6
        assert stats["num_targets"] == 80


class TestPlantedSignal:
    def test_roles_recoverable_from_incident_edge_types(self):
        """Oracle check that the planted signal exists (see DESIGN.md)."""
        cfg = base_config(edge_type_noise=0.05, num_nodes=400, avg_degree=8.0)
        kg = generate_planted_kg(cfg, rng=0)
        groups = num_role_pairs(3)
        per_group = cfg.num_relations // groups
        src, _ = kg.graph.edge_index
        g_of_edge = np.minimum(kg.graph.edge_type // per_group, groups - 1)
        hist = np.zeros((400, groups))
        np.add.at(hist, src, np.eye(groups)[g_of_edge])
        contains = np.zeros((groups, 3))
        idx = 0
        for i in range(3):
            for j in range(i, 3):
                contains[idx, i] += 1
                contains[idx, j] += 1
                idx += 1
        pred = (hist @ contains).argmax(axis=1)
        assert (pred == kg.roles).mean() > 0.9


class TestRelationRule:
    def test_labels_mostly_match_role_pair_group(self):
        cfg = base_config(
            class_rule="relation",
            num_classes=18,
            num_relations=18,
            edge_type_noise=0.1,
        )
        kg = generate_planted_kg(cfg, rng=0)
        groups = num_role_pairs(3)
        per_group = 18 // groups
        pg = role_pair_index(
            kg.roles[kg.target_pairs[:, 0]], kg.roles[kg.target_pairs[:, 1]], 3
        )
        label_group = np.minimum(kg.target_labels // per_group, groups - 1)
        # The relation label lies inside the pair's group except for the
        # noise fraction (plus remainder relations).
        assert (label_group == pg).mean() > 0.8

    def test_inserted_relation_equals_label(self):
        cfg = base_config(class_rule="relation", num_classes=18, num_relations=18)
        kg = generate_planted_kg(cfg, rng=0)
        # Each target link's arc carries exactly its label as relation id.
        for (u, v), label in zip(kg.target_pairs[:20], kg.target_labels[:20]):
            eids = edge_ids_between(kg.graph, int(u), int(v))
            assert len(eids) >= 1
            assert label in kg.graph.edge_type[eids]


class TestPairModRule:
    def test_seventh_class_only_from_noise(self):
        cfg = base_config(
            class_rule="pair_mod", num_classes=7, label_noise=0.0
        )
        kg = generate_planted_kg(cfg, rng=0)
        assert (kg.target_labels == 6).sum() == 0  # unreachable w/o noise
        cfg_noisy = base_config(
            class_rule="pair_mod", num_classes=7, label_noise=0.5, num_targets=200
        )
        kg2 = generate_planted_kg(cfg_noisy, rng=0)
        assert (kg2.target_labels == 6).sum() > 0
