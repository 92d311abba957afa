"""Dataset loaders: schema fidelity to the paper's Table II."""

import numpy as np
import pytest

from repro.datasets import (
    PAPER_SCHEMAS,
    ScaleTooSmallError,
    dataset_names,
    load_biokg_like,
    load_cora_like,
    load_dataset,
    load_primekg_like,
    load_wordnet_like,
)


SCALE = 0.15  # keep loader tests fast


class TestRegistry:
    def test_names(self):
        assert dataset_names() == ["primekg", "biokg", "wordnet", "cora"]

    def test_load_by_name(self):
        task = load_dataset("wordnet", scale=SCALE, rng=0, num_targets=30)
        assert task.name == "wordnet"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_scale_too_small_for_the_targets_names_dataset_scale_and_count(self):
        with pytest.raises(ValueError) as exc:
            load_dataset("primekg", scale=0.05)
        assert isinstance(exc.value, ScaleTooSmallError)
        message = str(exc.value)
        assert "primekg at scale 0.05" in message
        assert "800 distinct target pairs" in message
        # Link prediction draws its positives from the graph's own edges.
        with pytest.raises(ScaleTooSmallError, match="cora at scale 0.05 is too small"):
            load_dataset("cora", scale=0.05, num_targets=100_000)

    def test_paper_schemas_cover_registry(self):
        assert set(PAPER_SCHEMAS) == set(dataset_names())


class TestPrimeKG:
    def test_schema(self):
        task = load_primekg_like(scale=SCALE, num_targets=40, rng=0)
        assert task.num_classes == 3
        assert task.graph.num_node_types <= 10
        assert task.edge_attr_dim == 2  # compressed pos/neg
        assert task.subgraph_mode == "intersection"  # paper §III-A
        assert task.class_names == ["indication", "off-label use", "contra-indication"]

    def test_targets_are_drug_disease(self):
        task = load_primekg_like(scale=SCALE, num_targets=40, rng=0)
        t = task.graph.node_type
        for u, v in task.pairs:
            assert {t[u], t[v]} == {0, 1}

    def test_has_explicit_node_features(self):
        task = load_primekg_like(scale=SCALE, num_targets=40, rng=0)
        assert task.graph.node_features is not None
        assert task.feature_config.explicit_dim == 2


class TestBioKG:
    def test_schema(self):
        task = load_biokg_like(scale=SCALE, num_targets=40, rng=0)
        assert task.num_classes == 7
        assert task.edge_attr_dim == 51
        assert task.subgraph_mode == "union"
        assert task.graph.node_features is None  # no explicit features

    def test_targets_protein_protein(self):
        task = load_biokg_like(scale=SCALE, num_targets=40, rng=0)
        t = task.graph.node_type
        for u, v in task.pairs:
            assert t[u] == 0 and t[v] == 0

    def test_rare_class_is_scarce(self):
        task = load_biokg_like(scale=0.4, num_targets=300, rng=0)
        counts = task.class_counts()
        # Class 6 only arises through label noise.
        assert counts[6] < counts[:6].mean() / 2


class TestWordNet:
    def test_schema(self):
        task = load_wordnet_like(scale=SCALE, num_targets=60, rng=0)
        assert task.num_classes == 18
        assert task.edge_attr_dim == 18
        assert task.graph.num_node_types == 1  # homogeneous
        assert task.graph.node_features is None
        assert task.feature_config.num_node_types == 0  # DRNL only

    def test_feature_width_is_drnl_only(self):
        task = load_wordnet_like(scale=SCALE, num_targets=60, rng=0)
        from repro.seal.labeling import DEFAULT_MAX_LABEL

        assert task.feature_config.width == DEFAULT_MAX_LABEL + 1


class TestCora:
    def test_schema(self):
        task = load_cora_like(scale=SCALE, num_targets=60, rng=0)
        assert task.num_classes == 2
        assert task.edge_attr_dim == 0  # no edge attributes
        assert task.class_names == ["no-link", "link"]

    def test_balanced_existence_labels(self):
        task = load_cora_like(scale=SCALE, num_targets=60, rng=0)
        counts = task.class_counts()
        assert abs(int(counts[0]) - int(counts[1])) <= 1


class TestDeterminism:
    @pytest.mark.parametrize("name", ["primekg", "biokg", "wordnet", "cora"])
    def test_loaders_deterministic(self, name):
        kwargs = dict(scale=SCALE, rng=3, num_targets=30)
        a = load_dataset(name, **kwargs)
        b = load_dataset(name, **kwargs)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.graph.edge_index, b.graph.edge_index)
