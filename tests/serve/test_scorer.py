"""LinkScorer: typed results, compatibility gates, caching, determinism."""

import numpy as np
import pytest

import repro.obs as obs
from repro.datasets import load_primekg_like
from repro.graph.structure import Graph
from repro.models import AMDGCNN
from repro.seal import SEALDataset, predict_proba
from repro.serve import CompatibilityError, LinkScorer, ModelBundle


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


@pytest.fixture(scope="module")
def bundle(task):
    model = AMDGCNN(
        task.feature_config.width, task.num_classes, edge_dim=task.edge_attr_dim,
        heads=2, hidden_dim=16, num_conv_layers=2, sort_k=10, dropout=0.5, rng=1,
    )
    return ModelBundle.from_model(model, task, extraction_seed=5)


def scorer_for(bundle, task, **kw):
    kw.setdefault("micro_batch", 8)
    return LinkScorer(bundle, task.graph, **kw)


class TestScore:
    def test_typed_result(self, bundle, task):
        result = scorer_for(bundle, task).score(task.pairs[:6])
        assert result.ok
        assert result.probs.shape == (6, task.num_classes)
        np.testing.assert_allclose(result.probs.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(result.predicted, result.probs.argmax(axis=1))
        assert result.class_names == tuple(task.class_names)
        assert (result.num_nodes >= 2).all()
        assert result.num_edges.shape == (6,)
        assert result.timing["total_s"] >= result.timing["forward_s"] >= 0.0

    def test_single_pair_accepted_flat(self, bundle, task):
        sc = scorer_for(bundle, task)
        flat = sc.score(task.pairs[0])
        assert flat.probs.shape == (1, task.num_classes)

    def test_pair_shape_validation(self, bundle, task):
        with pytest.raises(ValueError):
            scorer_for(bundle, task).score(np.array([1, 2, 3]))

    def test_restores_training_mode(self, bundle, task):
        sc = scorer_for(bundle, task)
        sc.model.train()
        sc.score(task.pairs[:2])
        assert sc.model.training

    def test_grouping_never_changes_a_bit(self, bundle, task):
        """Scores are invariant to request grouping and arrival order."""
        reference = scorer_for(bundle, task).score(task.pairs[:16]).probs
        sc = scorer_for(bundle, task)
        perm = [7, 0, 12, 3, 15, 9, 1, 14, 5, 11, 2, 13, 8, 4, 10, 6]
        rows = {}
        for lo in range(0, 16, 5):
            chunk = perm[lo : lo + 5]
            res = sc.score(task.pairs[chunk])
            for j, link in enumerate(chunk):
                rows[link] = res.probs[j]
        got = np.stack([rows[i] for i in range(16)])
        np.testing.assert_array_equal(got, reference)

    def test_matches_evaluator_pipeline(self, bundle, task):
        """On the task's own links the scorer equals the offline evaluator.

        No subgraph here reaches ``max_subgraph_nodes``, so the two
        extraction streams (keyed on pair content vs link index) never
        subsample and both paths see identical subgraphs.
        """
        idx = np.arange(task.num_links)
        direct = predict_proba(bundle.build_model(), SEALDataset(task, rng=5), idx)
        served = scorer_for(bundle, task).score(task.pairs[idx]).probs
        np.testing.assert_array_equal(served, direct)

    def test_novel_pairs(self, bundle, task):
        """Pairs never seen as targets still classify (no labels needed)."""
        gen = np.random.default_rng(0)
        drugs = np.nonzero(task.graph.node_type == 0)[0]
        diseases = np.nonzero(task.graph.node_type == 1)[0]
        novel = np.stack([gen.choice(drugs, size=7), gen.choice(diseases, size=7)], axis=1)
        probs = scorer_for(bundle, task).score(novel).probs
        assert probs.shape == (7, task.num_classes)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_store_grows_past_initial_capacity(self, bundle, task, monkeypatch):
        import repro.serve.scorer as scorer_mod

        monkeypatch.setattr(scorer_mod, "_INITIAL_CAPACITY", 4)
        sc = scorer_for(bundle, task, micro_batch=4)
        result = sc.score(task.pairs[:20])
        assert result.probs.shape == (20, task.num_classes)
        assert len(sc.store) == 20


class TestScoreCache:
    def test_repeat_pairs_served_from_cache(self, bundle, task):
        sc = scorer_for(bundle, task)
        first = sc.score(task.pairs[:4])
        assert not first.cached.any()
        with obs.capture() as reg:
            second = sc.score(task.pairs[:4])
        assert second.cached.all()
        np.testing.assert_array_equal(first.probs, second.probs)
        assert reg.counters["serve.cache.hits"] == 4.0
        # Cached answers trigger no extraction and no forward. (Phase
        # keys are nested, e.g. "inference/extraction".)
        assert not any(
            "extraction" in k or "forward" in k for k in reg.phase_totals
        )

    def test_invalidate_bumps_version_and_recomputes(self, bundle, task):
        sc = scorer_for(bundle, task)
        before = sc.score(task.pairs[:3])
        v0 = sc.cache_info()["graph_version"]
        assert sc.invalidate() == v0 + 1
        assert sc.cache_info() == {
            "scores": 0, "subgraphs": 0, "graph_version": v0 + 1,
            "warm_pairs": 0,
        }
        after = sc.score(task.pairs[:3])
        assert not after.cached.any()
        np.testing.assert_array_equal(before.probs, after.probs)

    def test_graph_swap_revalidates_and_rescores(self, bundle, task):
        sc = scorer_for(bundle, task)
        baseline = sc.score(task.pairs[:3]).probs
        g = task.graph
        # Drop the last quarter of arcs: same schema, different adjacency.
        keep = np.arange(g.num_edges) < (3 * g.num_edges) // 4
        smaller = Graph(
            g.num_nodes,
            g.edge_index[:, keep],
            node_type=g.node_type,
            node_features=g.node_features,
            edge_type=g.edge_type[keep],
            edge_attr=g.edge_attr[keep],
        )
        sc.invalidate(smaller)
        changed = sc.score(task.pairs[:3]).probs
        assert changed.shape == baseline.shape
        assert not np.array_equal(changed, baseline)

    def test_cache_disabled(self, bundle, task):
        sc = scorer_for(bundle, task, cache_scores=False)
        sc.score(task.pairs[:3])
        second = sc.score(task.pairs[:3])
        assert not second.cached.any()
        assert sc.cache_info()["scores"] == 0


class TestCompatibilityGate:
    def test_missing_edge_attrs(self, bundle, task):
        g = task.graph
        bare = Graph(g.num_nodes, g.edge_index, node_type=g.node_type,
                     edge_type=g.edge_type)
        with pytest.raises(CompatibilityError):
            LinkScorer(bundle, bare)

    def test_wrong_edge_attr_width(self, bundle, task):
        g = task.graph
        wide = Graph(
            g.num_nodes, g.edge_index, node_type=g.node_type,
            edge_type=g.edge_type,
            edge_attr=np.concatenate([g.edge_attr, g.edge_attr], axis=1),
        )
        with pytest.raises(CompatibilityError):
            LinkScorer(bundle, wide)

    def test_node_type_overflow(self, bundle, task):
        g = task.graph
        shifted = Graph(
            g.num_nodes, g.edge_index,
            node_type=g.node_type + bundle.feature_config.num_node_types,
            edge_type=g.edge_type, edge_attr=g.edge_attr,
        )
        with pytest.raises(CompatibilityError):
            LinkScorer(bundle, shifted)

    def test_micro_batch_floor(self, bundle, task):
        with pytest.raises(ValueError):
            LinkScorer(bundle, task.graph, micro_batch=0)
        one = scorer_for(bundle, task, micro_batch=1).score(task.pairs[:20]).probs
        wide = scorer_for(bundle, task, micro_batch=16).score(task.pairs[:20]).probs
        np.testing.assert_array_equal(one, wide)
