"""SubgraphStore: batch writes, collation round trips, growth, memory accounting."""

import numpy as np
import pytest

from repro.data import PackedBatch, SubgraphStore, collate_from_store
from tests.oracles import packed_link


def make_batch(indices, sizes, *, feature_dim=4, edge_attr_dim=0, seed=0):
    """A random batch: link ``indices[i]`` gets ``sizes[i] = (nodes, edges)``."""
    gen = np.random.default_rng(seed)
    n_counts = np.array([n for n, _ in sizes], dtype=np.int64)
    e_counts = np.array([e for _, e in sizes], dtype=np.int64)
    edge_index = np.concatenate(
        [gen.integers(0, n, size=(2, e)) for n, e in sizes], axis=1
    ).astype(np.int64)
    e_total = int(e_counts.sum())
    return PackedBatch(
        indices=np.asarray(indices, dtype=np.int64),
        features=gen.normal(size=(int(n_counts.sum()), feature_dim)),
        edge_index=edge_index.reshape(2, e_total),
        edge_attr=gen.normal(size=(e_total, edge_attr_dim)) if edge_attr_dim else None,
        node_offsets=np.concatenate([[0], np.cumsum(n_counts)]),
        edge_offsets=np.concatenate([[0], np.cumsum(e_counts)]),
    )


def assert_collates_to(store, links, *, edge_attr_dim=0):
    """``collate_from_store`` over the keys of ``links`` (index -> arrays)
    stacks each link's arrays in order, node ids offset per link."""
    indices = list(links)
    got = collate_from_store(store, indices, edge_attr_dim=edge_attr_dim)
    features = [links[i][0] for i in indices]
    offsets = np.cumsum([0] + [f.shape[0] for f in features])
    edge_index = [links[i][1] + off for i, off in zip(indices, offsets)]
    np.testing.assert_array_equal(got.node_features, np.concatenate(features))
    np.testing.assert_array_equal(got.edge_index, np.concatenate(edge_index, axis=1))
    if edge_attr_dim:
        np.testing.assert_array_equal(
            got.edge_attr, np.concatenate([links[i][2] for i in indices])
        )
    for j, i in enumerate(indices):
        assert store.node_count[i] == features[j].shape[0]
        assert store.edge_count[i] == edge_index[j].shape[1]


class TestRoundtrip:
    def test_put_get_preserves_arrays(self):
        store = SubgraphStore(4, 4, edge_attr_dim=3)
        batch = make_batch([2, 0], [(7, 12), (3, 5)], edge_attr_dim=3)
        store.put(batch)
        assert store.edge_index.dtype == np.int64
        assert store.features.dtype == store.edge_attr.dtype == np.float64
        links = {2: packed_link(batch, 0), 0: packed_link(batch, 1)}
        assert_collates_to(store, links, edge_attr_dim=3)
        assert_collates_to(store, {0: links[0], 2: links[2]}, edge_attr_dim=3)

    def test_out_of_order_insertion(self):
        store = SubgraphStore(10, 4)
        first = make_batch([7, 0, 4], [(3, 5), (4, 6), (5, 7)], seed=1)
        second = make_batch([9, 2], [(2, 1), (6, 9)], seed=2)
        store.put(first)
        store.put(second)
        links = {i: packed_link(first, p) for p, i in enumerate([7, 0, 4])}
        links.update({i: packed_link(second, p) for p, i in enumerate([9, 2])})
        assert_collates_to(store, {i: links[i] for i in (0, 2, 4, 7, 9)})
        assert len(store) == 5

    def test_membership_and_missing(self):
        store = SubgraphStore(6, 4)
        store.put(make_batch([1, 4], [(3, 4), (3, 4)]))
        assert 1 in store and 4 in store and 0 not in store
        np.testing.assert_array_equal(
            store.missing(np.array([0, 1, 2, 2, 4, 5, 0])), [0, 2, 5]
        )

    def test_duplicate_put_is_noop(self):
        store = SubgraphStore(3, 4)
        kept = make_batch([0], [(5, 6)], seed=1)
        store.put(kept)
        before = store.cache_info()
        store.put(make_batch([0], [(9, 9)], seed=2))  # different payload, same index
        assert store.cache_info() == before
        # Stored links are skipped and a repeated link keeps its first
        # occurrence; the rest of the batch is written.
        mixed = make_batch([0, 1, 2, 1], [(9, 9), (4, 3), (2, 2), (7, 8)], seed=3)
        store.put(mixed)
        assert len(store) == 3
        assert store.cache_info().nodes == 5 + 4 + 2
        assert_collates_to(
            store,
            {0: packed_link(kept, 0), 1: packed_link(mixed, 1), 2: packed_link(mixed, 2)},
        )

    def test_get_absent_raises(self):
        store = SubgraphStore(3, 4)
        store.put(make_batch([0], [(2, 2)]))
        with pytest.raises(KeyError, match="link 1 not in store"):
            collate_from_store(store, [0, 1])

    def test_index_out_of_range_raises(self):
        store = SubgraphStore(3, 4)
        for bad in (-1, 3):
            with pytest.raises(IndexError, match=f"link index {bad} "):
                store.put(make_batch([0, bad], [(2, 2), (2, 2)]))
            assert len(store) == 0 and store.cache_info().nodes == 0

    def test_feature_shape_validated(self):
        store = SubgraphStore(3, 8)  # store expects width 8, batch has 4
        with pytest.raises(ValueError):
            store.put(make_batch([0], [(5, 6)]))

    def test_missing_edge_attributes_rejected(self):
        store = SubgraphStore(3, 4, edge_attr_dim=2)
        with pytest.raises(ValueError):
            store.put(make_batch([0], [(5, 6)]))


class TestGrowth:
    def test_buffers_grow_past_initial_capacity(self):
        store = SubgraphStore(50, 4, edge_attr_dim=2)
        links = {}
        for start in range(0, 50, 10):  # 2000 nodes / 3000 edges >> 256/512
            idx = list(range(start, start + 10))
            batch = make_batch(idx, [(40, 60)] * 10, edge_attr_dim=2, seed=start)
            store.put(batch)
            links.update({i: packed_link(batch, p) for p, i in enumerate(idx)})
        info = store.cache_info()
        assert info.entries == 50
        assert info.nodes == 50 * 40 and info.edges == 50 * 60
        assert store.features.shape[0] >= 2000 and store.edge_index.shape[1] >= 3000
        # data must survive every reallocation
        assert_collates_to(store, links, edge_attr_dim=2)

    def test_buffer_sizes_do_not_depend_on_batching(self):
        # Buffers double from their initial size whether links arrive one
        # per write or 40 at once: batching the writes allocates no more.
        sizes = [(15 + i % 7, 30 + i % 11) for i in range(40)]  # 717 / 1386 rows
        whole = SubgraphStore(40, 4, edge_attr_dim=2)
        whole.put(make_batch(range(40), sizes, edge_attr_dim=2))
        single = SubgraphStore(40, 4, edge_attr_dim=2)
        for i in range(40):
            single.put(make_batch([i], sizes[i : i + 1], edge_attr_dim=2))
        assert whole.features.shape == single.features.shape == (1024, 4)
        assert whole.edge_index.shape == single.edge_index.shape == (2, 2048)
        assert whole.cache_info().nbytes == single.cache_info().nbytes

    def test_write_spanning_two_doublings_keeps_stored_bytes(self):
        # Growth moves the used rows of all three buffers into fresh
        # ones: links written before and by the growing write collate to
        # the same bytes, and the buffers are exactly 4x their initial size.
        store = SubgraphStore(6, 4, edge_attr_dim=3)
        first = make_batch([5, 1], [(20, 40), (30, 50)], edge_attr_dim=3, seed=1)
        store.put(first)
        second = make_batch([0, 3, 2], [(300, 600), (250, 500), (200, 400)],
                            edge_attr_dim=3, seed=2)  # 800 / 1590 rows in use
        store.put(second)
        assert store.features.shape == (1024, 4)
        assert store.edge_index.shape == (2, 2048)
        assert store.edge_attr.shape == (2048, 3)
        assert store.cache_info().nbytes == 4 * 6 * 8 + (1024 * 4 + 2 * 2048 + 2048 * 3) * 8
        links = {i: packed_link(first, p) for p, i in enumerate([5, 1])}
        links.update({i: packed_link(second, p) for p, i in enumerate([0, 3, 2])})
        assert_collates_to(store, links, edge_attr_dim=3)

    def test_one_batch_larger_than_the_buffers(self):
        store = SubgraphStore(3, 4)
        batch = make_batch([2, 0, 1], [(300, 700), (1, 0), (10, 20)])
        store.put(batch)
        assert_collates_to(store, {i: packed_link(batch, p) for p, i in enumerate([2, 0, 1])})


class TestMemoryAccounting:
    def test_nbytes_counts_all_buffers(self):
        store = SubgraphStore(4, 4, edge_attr_dim=3)
        base = store.cache_info().nbytes
        assert base > 0
        store.put(make_batch(range(4), [(100, 200)] * 4, edge_attr_dim=3))
        grown = store.cache_info()
        assert grown.nbytes > base
        # the report is exactly the sum of the live buffers
        assert grown.nbytes == sum(
            arr.nbytes
            for arr in (
                store.node_start, store.node_count, store.edge_start, store.edge_count,
                store.features, store.edge_index, store.edge_attr,
            )
        )

    def test_clear_resets_everything(self):
        store = SubgraphStore(4, 4)
        store.put(make_batch([0], [(300, 600)]))
        store.clear()
        info = store.cache_info()
        assert (info.entries, info.nodes, info.edges) == (0, 0, 0)
        assert 0 not in store

    def test_clear_drops_plan_cache_and_counters(self):
        """clear() must not leave stale plans behind: kernel plans are keyed
        on batch composition, and the serve path's invalidate() relies on
        clear() wiping them along with the packed samples."""
        store = SubgraphStore(4, 4)
        assert store.plan_lookup(b"batch-key") is None  # one miss
        plans = object()
        store.plan_store(b"batch-key", plans)
        assert store.plan_lookup(b"batch-key") is plans  # one hit
        info = store.cache_info()
        assert (info.plans, info.plan_hits, info.plan_misses) == (1, 1, 1)
        store.clear()
        info = store.cache_info()
        assert (info.plans, info.plan_hits, info.plan_misses) == (0, 0, 0)
        # A post-clear lookup must miss — never serve the pre-clear plan.
        assert store.plan_lookup(b"batch-key") is None


class TestFloatDtype:
    """The store's float buffers follow the compute-dtype policy."""

    def test_default_follows_active_policy(self):
        from repro.nn.dtype import compute_dtype

        assert SubgraphStore(2, 4).float_dtype == np.dtype("float64")
        with compute_dtype("float32"):
            store = SubgraphStore(2, 4, edge_attr_dim=2)
        assert store.float_dtype == np.dtype("float32")
        assert store.features.dtype == np.dtype("float32")
        assert store.edge_attr.dtype == np.dtype("float32")

    def test_explicit_override_beats_policy(self):
        store = SubgraphStore(2, 4, float_dtype="float32")
        assert store.features.dtype == np.dtype("float32")

    def test_put_get_roundtrip_at_float32(self):
        store = SubgraphStore(4, 4, edge_attr_dim=3, float_dtype="float32")
        batch = make_batch([1], [(6, 10)], edge_attr_dim=3)
        store.put(batch)
        out = collate_from_store(store, [1], edge_attr_dim=3)
        assert out.node_features.dtype == out.edge_attr.dtype == np.dtype("float32")
        np.testing.assert_array_equal(out.node_features, batch.features.astype(np.float32))
        np.testing.assert_array_equal(out.edge_attr, batch.edge_attr.astype(np.float32))
        np.testing.assert_array_equal(out.edge_index, batch.edge_index)

    def test_nbytes_reports_actual_dtype_sizes(self):
        """A float32 store's float payload is half the float64 one —
        cache_info must report real per-array sizes, not assume 8 bytes."""

        def build(dtype):
            store = SubgraphStore(8, 4, edge_attr_dim=3, float_dtype=dtype)
            store.put(make_batch(range(8), [(50, 120)] * 8, edge_attr_dim=3))
            return store

        s64, s32 = build("float64"), build("float32")
        float_arrays = ("features", "edge_attr")
        for name in float_arrays:
            assert getattr(s32, name).nbytes * 2 == getattr(s64, name).nbytes
        float64_payload = sum(getattr(s64, n).nbytes for n in float_arrays)
        assert s64.cache_info().nbytes - s32.cache_info().nbytes == float64_payload // 2
        # and the report is exactly the sum of the live buffers
        expected = sum(
            arr.nbytes
            for arr in (
                s32.node_start, s32.node_count, s32.edge_start, s32.edge_count,
                s32.features, s32.edge_index, s32.edge_attr,
            )
        )
        assert s32.cache_info().nbytes == expected


class TestEvict:
    """Per-entry retirement (the delta-aware invalidation primitive)."""

    def test_evicted_entries_become_absent_survivors_stay(self):
        store = SubgraphStore(6, 4)
        batch = make_batch(range(4), [(10 + i, 20 + i) for i in range(4)])
        store.put(batch)
        assert store.evict([1, 3]) == 2
        assert len(store) == 2
        assert 1 not in store and 3 not in store
        assert 0 in store and 2 in store
        np.testing.assert_array_equal(store.missing([0, 1, 2, 3]), [1, 3])
        # Survivors read back untouched.
        assert_collates_to(store, {0: packed_link(batch, 0), 2: packed_link(batch, 2)})
        with pytest.raises(KeyError):
            collate_from_store(store, [1])

    def test_evicted_slot_is_reusable(self):
        store = SubgraphStore(4, 4)
        store.put(make_batch([0, 1], [(5, 8), (3, 3)], seed=1))
        store.evict([0])
        again = make_batch([0], [(7, 9)], seed=2)
        store.put(again)
        assert len(store) == 2
        assert_collates_to(store, {0: packed_link(again, 0)})

    def test_evict_bumps_generation_and_drops_plans(self):
        store = SubgraphStore(4, 4)
        store.put(make_batch([0], [(5, 8)]))
        store.plan_store(b"key", object())
        g = store.generation
        salt = store.plan_salt
        store.evict([0])
        assert store.generation == g + 1
        assert store.plan_salt != salt
        assert store.plan_lookup(b"key") is None

    def test_evicting_absent_or_nothing_is_free(self):
        store = SubgraphStore(4, 4)
        store.put(make_batch([0], [(5, 8)]))
        g = store.generation
        assert store.evict([]) == 0
        assert store.evict([2, 3]) == 0  # never stored
        assert store.generation == g  # no-op evictions don't churn plans

    def test_out_of_range_eviction_rejected(self):
        store = SubgraphStore(4, 4)
        with pytest.raises(IndexError):
            store.evict([4])


class TestLifetimeCounters:
    """Per-generation counters reset on clear; lifetime ones never do."""

    def test_lifetime_plan_counters_survive_clear(self):
        store = SubgraphStore(4, 4)
        assert store.plan_lookup(b"k") is None  # miss
        store.plan_store(b"k", object())
        assert store.plan_lookup(b"k") is not None  # hit
        store.clear()
        assert store.plan_lookup(b"k") is None  # post-clear miss
        info = store.cache_info()
        assert (info.plan_hits, info.plan_misses) == (0, 1)
        assert (info.lifetime_plan_hits, info.lifetime_plan_misses) == (1, 2)

    def test_generation_bumped_by_clear(self):
        store = SubgraphStore(4, 4)
        g = store.generation
        store.clear()
        store.clear()
        assert store.generation == g + 2
        assert store.cache_info().generation == g + 2
