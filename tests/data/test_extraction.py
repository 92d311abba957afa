"""Batched extraction into the store vs the per-link oracle.

:func:`repro.data.extraction.build_packed_samples` routes every batch
through the batched engine (:mod:`repro.graph.bulk`), and
:func:`repro.data.extraction.ensure_extracted` appends it to the store
in one write. Every stored link's ``features``, ``edge_index`` and
``edge_attr`` — DRNL labels, assembled node features and edge
attributes included — must equal per-link extraction
(:func:`tests.oracles.build_packed_sample`) bit for bit and dtype for
dtype, however the links are grouped into batches, on all four dataset
generators.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.data.extraction import build_packed_samples
from repro.datasets import load_dataset
from repro.seal.dataset import SEALDataset
from tests.oracles import build_packed_sample


@pytest.fixture(scope="module")
def tasks():
    out = {
        name: load_dataset(name, scale=0.12, num_targets=30, rng=0)
        for name in ("primekg", "cora", "wordnet", "biokg")
    }
    # A tight cap exercises the max_nodes tie-break's per-link streams.
    out["cora-capped"] = dataclasses.replace(out["cora"], max_subgraph_nodes=12)
    return out


def stored(store, i):
    """``(features, edge_index, edge_attr)`` slices of link ``i`` in ``store``."""
    ns, n = store.node_start[i], store.node_count[i]
    es, e = store.edge_start[i], store.edge_count[i]
    attr = None if store.edge_attr is None else store.edge_attr[es : es + e]
    return store.features[ns : ns + n], store.edge_index[:, es : es + e], attr


def assert_store_matches_oracle(ds, seed):
    task = ds.task
    assert len(ds.store) == task.num_links
    for i in range(task.num_links):
        want = build_packed_sample(task, seed, i)
        for name, w, g in zip(want._fields, want, stored(ds.store, i)):
            if w is None:
                assert g is None, name
            else:
                assert g.dtype == w.dtype, name
                np.testing.assert_array_equal(g, w, err_msg=f"link {i} {name}")


class TestBatchedVsFallback:
    def test_bit_identical_to_per_link(self, tasks):
        for task in tasks.values():
            ds = SEALDataset(task, rng=7)
            ds.ensure_many(np.arange(task.num_links))  # one whole batch
            assert_store_matches_oracle(ds, 7)

    def test_batch_grouping_is_invisible(self, tasks):
        # Per-link rng streams are keyed by (seed, link index), so the
        # same link extracts identically whatever batch it rides in.
        for task in tasks.values():
            indices = np.arange(task.num_links)
            groupings = (
                [indices[9:], indices[:9]],
                [indices[1::2], indices[::-4], indices],
            )
            for groups in groupings:
                ds = SEALDataset(task, rng=7)
                for group in groups:
                    ds.ensure_many(group)
                assert_store_matches_oracle(ds, 7)

    def test_empty_indices(self, tasks):
        task = tasks["primekg"]
        batch = build_packed_samples(task, 7, np.empty(0, np.int64))
        assert batch.indices.size == 0
        assert batch.features.shape == (0, task.feature_config.width)
        assert batch.edge_index.shape == (2, 0)
        np.testing.assert_array_equal(batch.node_offsets, [0])
        ds = SEALDataset(task, rng=7)
        ds.ensure_many([])
        assert len(ds.store) == 0


class TestEnsureMany:
    def test_fills_store_like_per_link_ensure(self, tasks):
        task = tasks["primekg"]
        bulk_ds = SEALDataset(task, rng=7)
        bulk_ds.ensure_many(np.arange(task.num_links))
        serial_ds = SEALDataset(task, rng=7)
        for i in range(task.num_links):
            serial_ds.ensure_many([i])
        for i in range(task.num_links):
            for a, b in zip(stored(bulk_ds.store, i), stored(serial_ds.store, i)):
                np.testing.assert_array_equal(a, b)

    def test_hit_miss_accounting(self, tasks):
        ds = SEALDataset(tasks["primekg"], rng=7)
        with obs.capture() as registry:
            ds.ensure_many(np.arange(8))
            ds.ensure_many(np.arange(12))  # 8 warm, 4 cold
        assert registry.counters["seal.cache.misses"] == 12.0
        assert registry.counters["seal.cache.hits"] == 8.0
