"""Serve-path precision: bundle dtype metadata and fp32/fp64 score parity.

The scorer may run its forward at float32 for throughput, but the
published probabilities always ship as float64 and must agree with the
full-precision path to far better than any decision threshold cares
about.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.serve import BundleError, LinkScorer, ModelBundle


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


def make_bundle(task, **kw):
    model = AMDGCNN(
        task.feature_config.width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=16, num_conv_layers=2, sort_k=10, rng=1,
    )
    return ModelBundle.from_model(model, task, extraction_seed=5, **kw)


class TestBundleDtypeMeta:
    def test_default_is_float64(self, task):
        assert make_bundle(task).compute_dtype == "float64"

    def test_roundtrips_through_save_load(self, task, tmp_path):
        bundle = make_bundle(task, compute_dtype="float32")
        path = tmp_path / "bundle.npz"
        bundle.save(path)
        assert ModelBundle.load(path).compute_dtype == "float32"

    def test_rejects_unsupported_dtype(self, task):
        with pytest.raises(BundleError):
            make_bundle(task, compute_dtype="float16")


class TestScorerDtypeParity:
    def test_float32_probs_match_float64(self, task):
        bundle = make_bundle(task)
        pairs = task.pairs[:12]
        p64 = LinkScorer(bundle, task.graph, micro_batch=8).score(pairs).probs
        sc32 = LinkScorer(
            dataclasses.replace(bundle, compute_dtype="float32"), task.graph, micro_batch=8
        )
        p32 = sc32.score(pairs).probs
        # published probabilities are always float64, whatever the policy
        assert p64.dtype == np.dtype("float64")
        assert p32.dtype == np.dtype("float64")
        np.testing.assert_allclose(p32.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(p32, p64, atol=1e-3)
        assert np.array_equal(p32.argmax(axis=1), p64.argmax(axis=1))

    def test_scorer_adopts_bundle_dtype(self, task):
        bundle = make_bundle(task, compute_dtype="float32")
        sc = LinkScorer(bundle, task.graph, micro_batch=8)
        assert sc.compute_dtype == np.dtype("float32")
        assert sc.store.float_dtype == np.dtype("float32")
        for _, p in sc.model.named_parameters():
            assert p.data.dtype == np.dtype("float32")
        result = sc.score(task.pairs[:4])
        assert result.ok and result.probs.dtype == np.dtype("float64")
