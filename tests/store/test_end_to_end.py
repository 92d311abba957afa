"""mmap-backed graphs are bit-identical to in-memory across the stack.

The core guarantee of ``Graph.save`` / ``Graph.open``: whether a
graph's bytes live on the heap or on mapped pages changes nothing
downstream. Training produces the same weights
and losses, and the scorer produces the same probabilities.
"""

import numpy as np
import pytest

from repro import obs
from repro.datasets import load_dataset
from repro.graph import Graph
from repro.models import AMDGCNN
from repro.seal import SEALDataset, TrainConfig, train, train_test_split_indices
from repro.serve import LinkScorer, ModelBundle
from repro.store import load_task, save_task
from repro.utils.rng import derive


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    task = load_dataset("primekg", scale=0.12, rng=0, num_targets=40)
    directory = tmp_path_factory.mktemp("saved-task")
    save_task(directory, task)
    return task, directory


def fit(task, seed=0, epochs=2):
    ds = SEALDataset(task, rng=seed)
    tr, _ = train_test_split_indices(
        task.num_links, 0.25, labels=task.labels, rng=derive(seed, "split")
    )
    model = AMDGCNN(
        ds.feature_width,
        task.num_classes,
        edge_dim=task.edge_attr_dim,
        heads=2,
        hidden_dim=16,
        num_conv_layers=2,
        sort_k=10,
        dropout=0.0,
        rng=derive(seed, "init"),
    )
    result = train(
        model,
        ds,
        tr,
        TrainConfig(epochs=epochs, batch_size=16, lr=3e-3),
        rng=derive(seed, "train"),
        verbose=False,
    )
    return model, result


class TestTrainingBitIdentity:
    def test_same_weights_and_losses(self, saved):
        task, directory = saved
        model_mem, res_mem = fit(task)
        model_mmap, res_mmap = fit(load_task(directory))
        assert res_mem.losses == res_mmap.losses
        for (name, a), (_, b) in zip(
            sorted(model_mem.state_dict().items()),
            sorted(model_mmap.state_dict().items()),
        ):
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestServingBitIdentity:
    def test_scorer_probs_match(self, saved, tmp_path):
        task, directory = saved
        model, _ = fit(task, epochs=1)
        bundle = ModelBundle.from_model(model, task, extraction_seed=0)
        bundle_path = tmp_path / "bundle.npz"
        bundle.save(bundle_path)

        mem = LinkScorer(bundle, task.graph, rng=0)
        mmapped = LinkScorer(ModelBundle.load(bundle_path), Graph.open(directory), rng=0)
        assert mmapped.graph.is_mmap
        pairs = task.pairs[:8]
        np.testing.assert_array_equal(
            mem.score(pairs).probs, mmapped.score(pairs).probs
        )

    def test_warm_preextracts(self, saved, tmp_path):
        task, directory = saved
        model, _ = fit(task, epochs=1)
        bundle = ModelBundle.from_model(model, task, extraction_seed=0)
        bundle_path = tmp_path / "bundle.npz"
        bundle.save(bundle_path)

        scorer = LinkScorer(ModelBundle.load(bundle_path), Graph.open(directory), rng=0)
        pairs = task.pairs[:6]
        with obs.capture() as reg:
            assert scorer.warm(pairs) == len(pairs)
        assert reg.counters.get("serve.warmed_pairs") == len(pairs)
        # Warmed pairs must score without any further extraction.
        with obs.capture() as reg:
            scorer.score(pairs)
        assert reg.counters.get("seal.cache.misses", 0.0) == 0.0
        assert reg.counters.get("seal.cache.hits", 0.0) == len(pairs)

    def test_warm_dedupes(self, saved, tmp_path):
        task, directory = saved
        model, _ = fit(task, epochs=1)
        bundle = ModelBundle.from_model(model, task, extraction_seed=0)
        scorer = LinkScorer(bundle, load_task(directory).graph, rng=0)
        pair = task.pairs[:1]
        doubled = np.concatenate([pair, pair])
        assert scorer.warm(doubled) == 1
