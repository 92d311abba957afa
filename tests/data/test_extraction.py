"""Packed-sample extraction: batched engine vs the per-link oracle.

:func:`repro.data.extraction.build_packed_samples` routes every batch
through the batched engine (:mod:`repro.graph.bulk`). It must produce
:class:`PackedSubgraph` samples bit-identical to per-link extraction
(:func:`tests.oracles.build_packed_sample`) — including DRNL labels,
assembled node features and edge attributes — regardless of how the
batch is grouped.
"""

import numpy as np
import pytest

from repro import obs
from repro.data.extraction import build_packed_samples
from repro.datasets.primekg import load_primekg_like
from repro.seal.dataset import SEALDataset
from tests.oracles import build_packed_sample


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


def assert_samples_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x._fields == y._fields
        for field in x._fields:
            xa, ya = getattr(x, field), getattr(y, field)
            if xa is None or ya is None:
                assert xa is ya, field
            else:
                np.testing.assert_array_equal(np.asarray(xa), np.asarray(ya))


class TestBatchedVsFallback:
    def test_bit_identical_to_per_link(self, task):
        indices = np.arange(task.num_links)
        batched = build_packed_samples(task, 7, indices)
        per_link = [build_packed_sample(task, 7, int(i)) for i in indices]
        assert_samples_equal(batched, per_link)

    def test_batch_grouping_is_invisible(self, task):
        # Per-link rng streams are keyed by (seed, link index), so the
        # same link extracts identically whatever batch it rides in.
        indices = np.arange(20)
        whole = build_packed_samples(task, 7, indices)
        halves = build_packed_samples(task, 7, indices[:9]) + build_packed_samples(
            task, 7, indices[9:]
        )
        assert_samples_equal(whole, halves)

    def test_empty_indices(self, task):
        assert build_packed_samples(task, 7, np.empty(0, np.int64)) == []


class TestEnsureMany:
    def test_fills_store_like_per_link_ensure(self, task):
        bulk_ds = SEALDataset(task, rng=7)
        bulk_ds.ensure_many(np.arange(task.num_links))
        serial_ds = SEALDataset(task, rng=7)
        for i in range(task.num_links):
            serial_ds.store.put(build_packed_sample(task, 7, i))
        for i in range(task.num_links):
            assert_samples_equal([bulk_ds.store.get(i)], [serial_ds.store.get(i)])

    def test_hit_miss_accounting(self, task):
        ds = SEALDataset(task, rng=7)
        with obs.capture() as registry:
            ds.ensure_many(np.arange(8))
            ds.ensure_many(np.arange(12))  # 8 warm, 4 cold
        assert registry.counters["seal.cache.misses"] == 12.0
        assert registry.counters["seal.cache.hits"] == 8.0
