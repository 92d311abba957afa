"""DataLoader: batch order, warm, collate-from-store, plan cache."""

import numpy as np
import pytest

from repro.data import DataLoader, collate_from_store, epoch_batches, warm
from repro.datasets.primekg import load_primekg_like
from repro.distributed import partition_graph, shard_task
from repro.graph.structure import Graph
from repro.seal.dataset import SEALDataset
from tests.oracles import build_packed_sample, collate


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
        plain = DataLoader(fresh_dataset(task), batch_size=8, rng=np.random.default_rng(11))
        ds = fresh_dataset(task)
        warm(ds)
        warmed = DataLoader(ds, batch_size=8, rng=np.random.default_rng(11))
        assert_streams_equal(batch_stream(plain), batch_stream(warmed))


class TestCollateFromStore:
    def test_matches_object_collate(self, task):
        ds = fresh_dataset(task)
        idx = np.arange(12)
        samples = [build_packed_sample(task, ds.rng_seed, int(i)) for i in idx]
        expected = collate(
            [
                Graph(s.features.shape[0], s.edge_index, edge_attr=s.edge_attr)
                for s in samples
            ],
            [s.features for s in samples],
            edge_attr_dim=task.edge_attr_dim,
        )
        ds.ensure_many(idx[::-1])
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


class TestEpochBatches:
    def test_preserves_order_without_generator(self):
        idx = np.array([5, 3, 9, 1, 7])
        batches = epoch_batches(idx, 2)
        np.testing.assert_array_equal(np.concatenate(batches), idx)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_batch_count(self):
        assert len(epoch_batches(np.arange(10), 3)) == 4
        assert len(epoch_batches(np.arange(9), 3, np.random.default_rng(0))) == 3

    def test_invalid_batch_size(self, task):
        with pytest.raises(ValueError):
            DataLoader(fresh_dataset(task), np.arange(5), 0)

    def test_covers_all_exactly_once(self):
        served = np.concatenate(epoch_batches(np.arange(20), 6, np.random.default_rng(0)))
        assert sorted(served.tolist()) == list(range(20))

    def test_deterministic_given_seed(self):
        a = [b.tolist() for b in epoch_batches(np.arange(20), 7, np.random.default_rng(3))]
        b = [b.tolist() for b in epoch_batches(np.arange(20), 7, np.random.default_rng(3))]
        assert a == b

    def test_epochs_differ_but_replay(self):
        g1, g2 = np.random.default_rng(5), np.random.default_rng(5)
        epochs1 = [np.concatenate(epoch_batches(np.arange(30), 10, g1)).tolist() for _ in range(3)]
        epochs2 = [np.concatenate(epoch_batches(np.arange(30), 10, g2)).tolist() for _ in range(3)]
        assert epochs1 == epochs2  # one stream, replayable from the seed
        assert epochs1[0] != epochs1[1]  # but consecutive epochs differ

    def test_loader_serves_epoch_batches(self, task):
        idx = np.arange(task.num_links)
        loader = DataLoader(fresh_dataset(task), idx, 8, rng=np.random.default_rng(4))
        reference = np.random.default_rng(4)
        for _ in range(2):  # each pass draws the next permutation
            expect = epoch_batches(idx, 8, reference)
            served = list(loader)
            assert len(served) == len(expect)
            for (graphs, labels), batch_idx in zip(served, expect):
                np.testing.assert_array_equal(labels, task.labels[batch_idx])
                assert graphs.num_graphs == len(batch_idx)

    def test_shards_partition_every_global_batch(self):
        # The data-parallel step's grouping: each shard keeps the links of
        # the global batch it owns, in batch order.
        indices = np.arange(100)
        owners = np.random.default_rng(0).integers(0, 3, size=100)
        masks = [owners == k for k in range(3)]
        for batch in epoch_batches(indices, 16, np.random.default_rng(7)):
            pieces = [batch[mask[batch]] for mask in masks]
            # Concatenating in shard order covers the batch exactly...
            np.testing.assert_array_equal(
                np.sort(np.concatenate(pieces)), np.sort(batch)
            )
            # ...and each piece preserves the batch's internal order.
            for piece in pieces:
                pos = [int(np.flatnonzero(batch == i)[0]) for i in piece]
                assert pos == sorted(pos)

    def test_shard_local_dataset_extracts_the_same_bytes(self, task):
        part = partition_graph(task, 2, seed=11)
        shard = part.shards[0]
        assert shard.owned_links.size  # sanity: the shard actually owns links
        local = SEALDataset(shard_task(task, shard), rng=0)
        full = SEALDataset(task, rng=0)
        mask = np.zeros(task.num_links, dtype=bool)
        mask[shard.owned_links] = True
        served = 0
        for batch in epoch_batches(np.arange(task.num_links), 16, np.random.default_rng(5)):
            mine = batch[mask[batch]]
            if not mine.size:
                continue
            a, _ = local.batch(mine)
            b, _ = full.batch(mine)
            np.testing.assert_array_equal(a.node_features, b.node_features)
            np.testing.assert_array_equal(a.edge_index, b.edge_index)
            np.testing.assert_array_equal(a.edge_attr, b.edge_attr)
            served += mine.size
        assert served == shard.owned_links.size
