"""Prequential evaluation: offline bit-identity and online training."""

import numpy as np
import pytest

from repro.datasets import load_primekg_like
from repro.models import AMDGCNN
from repro.seal.dataset import SEALDataset
from repro.seal.evaluator import evaluate
from repro.stream import (
    StreamConfig,
    StreamingGraph,
    events_from_links,
    generate_events,
    run_prequential,
)

pytestmark = pytest.mark.stream


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=48, rng=0)


@pytest.fixture(scope="module")
def model_seed(task):
    return dict(
        in_dim=task.feature_config.width,
        num_classes=task.num_classes,
        edge_dim=task.edge_attr_dim,
        heads=2,
        hidden_dim=16,
        num_conv_layers=2,
        sort_k=10,
        dropout=0.5,
    )


class TestOfflineEquivalence:
    def test_zero_mutation_stream_matches_evaluate_bitwise(self, task, model_seed):
        """Satellite 4a: a pure-add, no-train, no-mutation stream is the
        offline evaluator, bit for bit — probs and every metric field."""
        model = AMDGCNN(rng=3, **model_seed)
        ds = SEALDataset(task, rng=7)
        off = evaluate(model, ds, np.arange(len(task.labels)), batch_size=8)

        stream = StreamingGraph(task.graph)
        events = events_from_links(
            task.pairs,
            task.labels,
            edge_attr=(
                np.eye(task.edge_attr_dim)[task.labels % task.edge_attr_dim]
                if task.edge_attr_dim
                else None
            ),
        )
        cfg = StreamConfig(
            window_size=16,  # multiple of eval_batch_size -> aligned batches
            eval_batch_size=8,
            train_epochs=0,
            mutate_graph=False,
        )
        res = run_prequential(
            model, stream, task, events, cfg, extraction_rng=7
        )

        assert res.num_links == len(task.labels)
        assert res.final is not None
        np.testing.assert_array_equal(res.final.probs, off.probs)
        np.testing.assert_array_equal(res.final.labels, off.labels)
        assert res.final.auc == off.auc
        assert res.final.ap == off.ap
        assert res.final.accuracy == off.accuracy
        assert res.final.auc_random_class == off.auc_random_class
        np.testing.assert_array_equal(res.final.confusion, off.confusion)

    def test_misaligned_windows_still_score_every_link(self, task, model_seed):
        model = AMDGCNN(rng=3, **model_seed)
        stream = StreamingGraph(task.graph)
        events = events_from_links(task.pairs, task.labels)
        cfg = StreamConfig(
            window_size=13, eval_batch_size=8, train_epochs=0, mutate_graph=False
        )
        res = run_prequential(model, stream, task, events, cfg, extraction_rng=7)
        assert res.num_links == len(task.labels)
        np.testing.assert_array_equal(res.pairs, task.pairs)


class TestOnline:
    def test_mutating_run_trains_and_tracks_drift(self, task, model_seed):
        model = AMDGCNN(rng=5, **model_seed)
        stream = StreamingGraph(task.graph)
        events = generate_events(
            task.graph,
            40,
            rng=11,
            add_fraction=0.75,
            num_classes=task.num_classes,
        )
        cfg = StreamConfig(
            window_size=10,
            eval_batch_size=8,
            train_epochs=1,
            train_window=24,
            batch_size=8,
            lr=1e-3,
        )
        res = run_prequential(model, stream, task, events, cfg, rng=1)
        assert len(res.windows) == 4
        # The graph actually advanced one version per mutating window.
        assert stream.version == 4
        assert [w.version for w in res.windows] == [0, 1, 2, 3]
        assert all(w.trained_links > 0 for w in res.windows)
        # Sliding buffer never exceeds train_window.
        assert max(w.trained_links for w in res.windows) <= 24
        assert res.final is not None and 0.0 <= res.final.accuracy <= 1.0
        summary = res.summary()
        assert summary["windows"] == 4
        assert summary["drift"]["windows"] == 4

    def test_train_window_trims_buffer(self, task, model_seed):
        model = AMDGCNN(rng=5, **model_seed)
        stream = StreamingGraph(task.graph)
        events = events_from_links(task.pairs[:32], task.labels[:32])
        cfg = StreamConfig(
            window_size=8,
            eval_batch_size=8,
            train_epochs=1,
            train_window=10,
            batch_size=8,
            mutate_graph=False,
        )
        res = run_prequential(model, stream, task, events, cfg)
        # Buffer grows to the cap and then holds there.
        assert [w.trained_links for w in res.windows] == [8, 10, 10, 10]

    def test_empty_stream_gives_empty_result(self, task, model_seed):
        model = AMDGCNN(rng=5, **model_seed)
        res = run_prequential(
            model,
            StreamingGraph(task.graph),
            task,
            events_from_links(np.empty((0, 2), np.int64), np.empty(0, np.int64)),
        )
        assert res.num_links == 0
        assert res.final is None and res.windows == []


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"window_size": 0},
            {"eval_batch_size": 0},
            {"train_epochs": -1},
            {"train_window": 0},
            {"batch_size": 0},
        ],
    )
    def test_bad_config_rejected(self, kw):
        with pytest.raises(ValueError):
            StreamConfig(**kw)
