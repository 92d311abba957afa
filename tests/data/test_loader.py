"""DataLoader: warm, collate-from-store, plan cache, samplers."""

import numpy as np
import pytest

from repro.data import DataLoader, StratifiedBatchSampler, collate_from_store, warm
from repro.datasets.primekg import load_primekg_like
from repro.graph.batch import collate
from repro.seal.dataset import SEALDataset


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


def fresh_dataset(task):
    return SEALDataset(task, rng=7)


def batch_stream(loader):
    """Materialize (edge_index, node_features, edge_attr, batch, labels)."""
    return [
        (
            batch.edge_index.copy(),
            batch.node_features.copy(),
            batch.edge_attr.copy(),
            batch.batch.copy(),
            labels.copy(),
        )
        for batch, labels in loader
    ]


def assert_streams_equal(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        for x, y in zip(ta, tb):
            np.testing.assert_array_equal(x, y)


class TestWarm:
    def test_warm_fills_whole_store(self, task):
        ds = fresh_dataset(task)
        warm(ds)
        assert ds.cache_info().size == task.num_links

    def test_warm_does_not_consume_shuffle_stream(self, task):
        plain = DataLoader(fresh_dataset(task), batch_size=8, shuffle=True, rng=11)
        warmed = DataLoader(fresh_dataset(task), batch_size=8, shuffle=True, rng=11)
        warmed.warm()
        assert_streams_equal(batch_stream(plain), batch_stream(warmed))


class TestCollateFromStore:
    def test_matches_object_collate(self, task):
        ds = fresh_dataset(task)
        idx = np.arange(12)
        extracted = [ds.extract(int(i)) for i in idx]
        expected = collate(
            [g for g, _ in extracted],
            [f for _, f in extracted],
            edge_attr_dim=task.edge_attr_dim,
        )
        got = collate_from_store(ds.store, idx, edge_attr_dim=task.edge_attr_dim)
        np.testing.assert_array_equal(expected.edge_index, got.edge_index)
        np.testing.assert_array_equal(expected.node_features, got.node_features)
        np.testing.assert_array_equal(expected.edge_attr, got.edge_attr)
        np.testing.assert_array_equal(expected.batch, got.batch)
        assert expected.num_graphs == got.num_graphs

    def test_empty_batch_rejected(self, task):
        ds = fresh_dataset(task)
        with pytest.raises(ValueError):
            collate_from_store(ds.store, np.array([], dtype=np.int64))

    def test_plan_cache_shared_across_epochs(self, task):
        from repro import obs

        ds = fresh_dataset(task)
        idx = np.arange(10)
        ds.ensure_many(idx)
        with obs.capture() as registry:
            b1 = collate_from_store(ds.store, idx, edge_attr_dim=task.edge_attr_dim)
            b2 = collate_from_store(ds.store, idx, edge_attr_dim=task.edge_attr_dim)
            b3 = collate_from_store(
                ds.store, idx[::-1].copy(), edge_attr_dim=task.edge_attr_dim
            )
        # Same composition → same PlanCache object; different → its own.
        assert b1.plans is b2.plans
        assert b3.plans is not b1.plans
        assert registry.counters["data.store.plan_cache.hits"] == 1.0
        assert registry.counters["data.store.plan_cache.misses"] == 2.0
        assert ds.store.cache_info().plans == 2

    def test_plan_cache_is_bounded_and_cleared(self, task):
        ds = fresh_dataset(task)
        ds.ensure_many(np.arange(12))
        ds.store.plan_cache_limit = 3
        for i in range(8):
            collate_from_store(
                ds.store, np.array([i, i + 1]), edge_attr_dim=task.edge_attr_dim
            )
        assert ds.store.cache_info().plans == 3
        ds.store.clear()
        assert ds.store.cache_info().plans == 0


class TestStratifiedLoader:
    def test_stratified_sampler_drives_loader(self, task):
        ds = fresh_dataset(task)
        sampler = StratifiedBatchSampler(
            np.arange(task.num_links), task.labels, 8, rng=0
        )
        served = []
        for batch, labels in DataLoader(ds, sampler=sampler):
            served.extend(labels.tolist())
            assert batch.num_graphs == len(labels)
        assert len(served) == task.num_links
