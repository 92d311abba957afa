"""ShardedBatchSampler: exact per-batch partition of the global stream."""

import numpy as np
import pytest

from repro.data import DataLoader, ShardedBatchSampler, ShuffleSampler
from repro.datasets import load_primekg_like
from repro.distributed import partition_graph, shard_task
from repro.seal.dataset import SEALDataset


class TestAlignment:
    def test_shards_partition_every_global_batch(self):
        indices = np.arange(100)
        owners = np.random.default_rng(0).integers(0, 3, size=100)
        global_batches = list(ShuffleSampler(indices, 16, rng=7))
        shard_iters = [
            iter(
                ShardedBatchSampler(
                    indices,
                    16,
                    owned=np.flatnonzero(owners == k),
                    rng=7,
                    drop_empty=False,
                )
            )
            for k in range(3)
        ]
        for batch in global_batches:
            pieces = [next(it) for it in shard_iters]
            # Concatenating in shard order covers the batch exactly...
            np.testing.assert_array_equal(
                np.sort(np.concatenate(pieces)), np.sort(batch)
            )
            # ...and each piece preserves the batch's internal order.
            for piece in pieces:
                pos = [int(np.flatnonzero(batch == i)[0]) for i in piece]
                assert pos == sorted(pos)
        for it in shard_iters:
            with pytest.raises(StopIteration):
                next(it)

    def test_drop_empty_skips_zero_batches(self):
        indices = np.arange(32)
        sampler = ShardedBatchSampler(
            indices, 8, owned=np.array([3]), rng=0, drop_empty=True
        )
        batches = list(sampler)
        assert all(b.size > 0 for b in batches)
        assert sum(b.size for b in batches) == 1
        assert len(sampler) == 4  # global step count, an upper bound

    def test_epoch_stream_matches_shuffle_sampler_across_epochs(self):
        indices = np.arange(50)
        owned = np.arange(0, 50, 2)
        shuffled = ShuffleSampler(indices, 16, rng=3)
        sharded = ShardedBatchSampler(
            indices, 16, owned=owned, rng=3, drop_empty=False
        )
        mask = np.zeros(50, dtype=bool)
        mask[owned] = True
        for _ in range(3):  # same generator stream epoch after epoch
            for batch, mine in zip(shuffled, sharded):
                np.testing.assert_array_equal(batch[mask[batch]], mine)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedBatchSampler(np.arange(10), 0, owned=np.arange(5))
        with pytest.raises(ValueError):
            ShardedBatchSampler([[1, 2]], 4, owned=np.arange(2))


class TestLoaderIntegration:
    def test_shard_loader_serves_owned_links_only(self):
        task = load_primekg_like(scale=0.12, num_targets=40, rng=0)
        part = partition_graph(task, 2, method="hash", seed=11)
        shard = part.shards[0]
        local = SEALDataset(shard_task(task, shard), rng=0)
        sampler = ShardedBatchSampler(
            np.arange(task.num_links), 16, owned=shard.owned_links, rng=5
        )
        loader = DataLoader(local, batch_size=16, sampler=sampler)
        served = 0
        owned = set(int(i) for i in shard.owned_links)
        full = SEALDataset(task, rng=0)
        for batch, labels in loader:
            served += labels.shape[0]
        assert served == shard.owned_links.size
        # Spot-check bit-identity against the full-graph dataset.
        probe = shard.owned_links[:4]
        local.ensure_many(probe)
        full.ensure_many(probe)
        for i in probe:
            np.testing.assert_array_equal(
                local.store.get(int(i)).features, full.store.get(int(i)).features
            )
        assert owned  # sanity: the shard actually owns links
