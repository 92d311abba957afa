"""Delta-aware cache invalidation: bit-identity with the full clear.

The serving-side half of the streaming tentpole (satellite 4b): after a
small graph delta, retiring only the pairs whose k-hop neighborhood
intersects the touched nodes must produce scores bit-identical to
dropping everything — while answering far-away pairs straight from the
caches.
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.graph.structure import Graph
from repro.models import AMDGCNN
from repro.seal.features import FeatureConfig
from repro.serve import LinkScorer, ModelBundle
from repro.stream import StreamingGraph, events_from_links

pytestmark = pytest.mark.stream

N = 240


def ring_chord_graph(n=N):
    """Sparse ring + long chords: 2-hop halos stay tiny, so a local
    delta leaves most of the graph untouched — the regime delta-aware
    invalidation is built for."""
    u = np.arange(n)
    edges = np.concatenate(
        [np.stack([u, (u + 1) % n], 1), np.stack([u, (u + 7) % n], 1)]
    )
    etype = np.arange(len(edges)) % 3
    return Graph.from_undirected(
        n,
        edges,
        node_type=u % 2,
        edge_type=etype,
        edge_attr=np.eye(3)[etype],
    )


class _Task:
    """Just enough of a LinkTask for ModelBundle.from_model."""

    def __init__(self, graph):
        self.graph = graph
        self.num_classes = 3
        self.class_names = ["a", "b", "c"]
        self.name = "ring"
        self.subgraph_mode = "union"
        self.num_hops = 2
        self.max_subgraph_nodes = 60
        self.edge_attr_dim = 3
        self.feature_config = FeatureConfig(num_node_types=2, use_drnl=True)


@pytest.fixture(scope="module")
def setup():
    graph = ring_chord_graph()
    task = _Task(graph)
    model = AMDGCNN(
        task.feature_config.width, 3, edge_dim=3, heads=2, hidden_dim=12,
        num_conv_layers=2, sort_k=10, rng=0,
    )
    bundle = ModelBundle.from_model(model, task, extraction_seed=3)
    rng = np.random.default_rng(0)
    pairs = np.stack([rng.permutation(N)[:40], rng.permutation(N)[:40]], axis=1)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:32]
    return graph, bundle, pairs


def far_delta(graph):
    """One added edge between consecutive ring nodes 100-101."""
    sg = StreamingGraph(graph)
    sg.apply(
        events_from_links(
            np.array([[100, 101]]), np.array([1]), edge_attr=np.eye(3)[[1]]
        )
    )
    return sg.snapshot()


class TestBitIdentity:
    def test_delta_scores_equal_full_clear_scores(self, setup):
        graph, bundle, pairs = setup
        snap = far_delta(graph)

        full = LinkScorer(bundle, graph, micro_batch=8)
        full.score(pairs)
        full.invalidate(snap.graph)  # no delta -> drop everything
        ref = full.score(pairs)
        assert not ref.cached.any()

        delta = LinkScorer(bundle, graph, micro_batch=8)
        delta.score(pairs)
        with obs.capture() as reg:
            delta.invalidate(snap.graph, delta=snap.delta)
            got = delta.score(pairs)
        np.testing.assert_array_equal(got.probs, ref.probs)
        assert reg.counters["serve.cache.delta_invalidations"] == 1.0
        assert reg.counters["serve.cache.retired_pairs"] < len(pairs)
        # Pairs far from the delta answered without any recompute.
        assert got.cached.sum() == len(pairs) - reg.counters["serve.cache.retired_pairs"]

    def test_delta_matches_fresh_scorer_on_new_graph(self, setup):
        graph, bundle, pairs = setup
        snap = far_delta(graph)
        fresh = LinkScorer(bundle, snap.graph, micro_batch=8).score(pairs)

        sc = LinkScorer(bundle, graph, micro_batch=8)
        sc.score(pairs)
        sc.invalidate(snap.graph, delta=snap.delta)
        np.testing.assert_array_equal(sc.score(pairs).probs, fresh.probs)

    def test_affected_pairs_are_rescored(self, setup):
        graph, bundle, pairs = setup
        snap = far_delta(graph)
        near = np.array([[100, 101], [99, 102]])
        sc = LinkScorer(bundle, graph, micro_batch=8)
        before = sc.score(near)
        sc.invalidate(snap.graph, delta=snap.delta)
        after = sc.score(near)
        assert not after.cached.any()
        # The edge landed inside both subgraphs: scores must move.
        assert not np.array_equal(after.probs, before.probs)


class TestRewarm:
    def test_retired_warm_pairs_are_reextracted(self, setup):
        graph, bundle, pairs = setup
        snap = far_delta(graph)
        sc = LinkScorer(bundle, graph, micro_batch=8)
        sc.warm(np.array([[100, 101], [5, 6]]))
        with obs.capture() as reg:
            sc.invalidate(snap.graph, delta=snap.delta)
        # Only the pair near the delta was retired and re-warmed.
        assert reg.counters["serve.cache.rewarmed_pairs"] == 1.0
        assert reg.counters["serve.cache.retired_pairs"] == 1.0
        assert len(sc.store) == 2  # both warm pairs extracted right now

    def test_full_clear_rewarms_everything(self, setup):
        graph, bundle, pairs = setup
        sc = LinkScorer(bundle, graph, micro_batch=8)
        sc.warm(pairs[:6])
        with obs.capture() as reg:
            sc.invalidate()
        assert reg.counters["serve.cache.rewarmed_pairs"] == 6.0
        assert len(sc.store) == 6


class TestSlotDiscipline:
    def test_no_slot_aliasing_after_delta_retirement(self, setup):
        """Regression: slots must come from a monotone counter. Reusing
        len(_slots) after a retirement would hand a new pair a retired
        pair's slot while that pair can still come back later."""
        graph, bundle, pairs = setup
        snap = far_delta(graph)
        sc = LinkScorer(bundle, graph, micro_batch=8)
        sc.score(pairs[:8])
        sc.invalidate(snap.graph, delta=snap.delta)
        survivors = dict(sc._slots)
        sc.score(np.array([[100, 101], [50, 60]]))  # new + retired pairs
        for key, slot in survivors.items():
            assert sc._slots[key] == slot
        # All live slots distinct.
        assert len(set(sc._slots.values())) == len(sc._slots)

    def test_touched_nodes_validated(self, setup):
        graph, bundle, pairs = setup
        sc = LinkScorer(bundle, graph, micro_batch=8)
        with pytest.raises(ValueError):
            sc.invalidate(delta=np.array([N + 5]))

    def test_saturating_delta_falls_back_to_full_clear(self, setup):
        graph, bundle, pairs = setup
        sc = LinkScorer(bundle, graph, micro_batch=8)
        sc.score(pairs[:4])
        with obs.capture() as reg:
            # Touch every node: the halo reaches all cached pairs.
            sc.invalidate(delta=np.arange(N))
        assert reg.counters["serve.cache.invalidations"] == 1.0
        assert "serve.cache.delta_invalidations" not in reg.counters
