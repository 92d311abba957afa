"""ModelBundle: capture, persistence, exact round-trips."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.models import AMDGCNN, RGCNDGCNN, VanillaDGCNN
from repro.serve import BundleError, LinkScorer, ModelBundle


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


def _model(task, cls=AMDGCNN, **kw):
    base = dict(hidden_dim=16, num_conv_layers=2, sort_k=10, dropout=0.25, rng=1)
    if cls is AMDGCNN:
        base.update(edge_dim=task.edge_attr_dim, heads=2)
    if cls is RGCNDGCNN:
        base.update(num_relations=task.graph.num_edge_types)
    base.update(kw)
    return cls(task.feature_config.width, task.num_classes, **base)


class TestCapture:
    def test_from_model_derives_class_count_from_head(self, task):
        model = _model(task)
        bundle = ModelBundle.from_model(model, task)
        assert bundle.num_classes == model.lin2.out_features
        assert bundle.class_names == list(task.class_names)
        assert bundle.model_kwargs["in_dim"] == task.feature_config.width

    def test_task_head_disagreement_is_typed(self, task):
        wrong = AMDGCNN(
            task.feature_config.width, task.num_classes + 1,
            edge_dim=task.edge_attr_dim, hidden_dim=16, num_conv_layers=2,
            sort_k=10, rng=1,
        )
        with pytest.raises(BundleError):
            ModelBundle.from_model(wrong, task)

    def test_unknown_model_class_rejected(self, task):
        from repro.nn.dense import Linear

        with pytest.raises(BundleError):
            ModelBundle.from_model(Linear(4, 2), task)

    def test_class_names_length_validated(self, task):
        model = _model(task)
        with pytest.raises(BundleError):
            dataclasses.replace(ModelBundle.from_model(model, task), class_names=["just_one"])

    @pytest.mark.parametrize("cls", [VanillaDGCNN, AMDGCNN, RGCNDGCNN])
    def test_build_model_reproduces_every_architecture(self, task, cls):
        """Captured spec + strict state load == the original, bitwise."""
        model = _model(task, cls=cls)
        bundle = ModelBundle.from_model(model, task)
        rebuilt = bundle.build_model()
        assert type(rebuilt) is cls
        original = model.state_dict()
        for name, arr in rebuilt.state_dict().items():
            np.testing.assert_array_equal(arr, original[name])


class TestRoundTrip:
    def test_save_load_scores_exactly(self, task, tmp_path):
        model = _model(task)
        bundle = ModelBundle.from_model(model, task, extraction_seed=3)
        path = bundle.save(tmp_path / "model.npz")

        direct = LinkScorer(bundle, task.graph, micro_batch=8).score(task.pairs[:10])
        loaded = LinkScorer(ModelBundle.load(path), task.graph, micro_batch=8).score(
            task.pairs[:10]
        )
        np.testing.assert_array_equal(direct.probs, loaded.probs)

    def test_load_preserves_settings(self, task, tmp_path):
        bundle = ModelBundle.from_model(_model(task), task, extraction_seed=9)
        bundle.save(tmp_path / "model.npz")
        back = ModelBundle.load(tmp_path / "model.npz")
        assert back.model_class == bundle.model_class
        assert back.model_kwargs == bundle.model_kwargs
        assert back.num_hops == task.num_hops
        assert back.subgraph_mode == task.subgraph_mode
        assert back.max_subgraph_nodes == task.max_subgraph_nodes
        assert back.edge_attr_dim == task.edge_attr_dim
        assert back.extraction_seed == 9
        assert back.feature_config.width == task.feature_config.width

    def test_not_a_bundle_is_typed(self, task, tmp_path):
        from repro.utils.serialization import save_arrays

        path = tmp_path / "weights.npz"
        save_arrays(path, _model(task).state_dict())
        with pytest.raises(BundleError):
            ModelBundle.load(path)

    def test_version_gate(self, task, tmp_path):
        from repro.utils.serialization import read_meta_npz, write_meta_npz

        bundle = ModelBundle.from_model(_model(task), task)
        path = bundle.save(tmp_path / "model.npz")
        arrays, meta = read_meta_npz(path)
        meta["version"] = 99
        write_meta_npz(path, arrays, meta)
        with pytest.raises(BundleError):
            ModelBundle.load(path)
