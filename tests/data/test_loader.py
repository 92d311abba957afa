"""DataLoader: parallel == serial bit-identity, fallback, warm."""

import time

import numpy as np
import pytest

import repro.data.loader as loader_mod
from repro.data import DataLoader, StratifiedBatchSampler, collate_from_store, warm
from repro.datasets.primekg import load_primekg_like
from repro.graph.batch import collate
from repro.models import AMDGCNN
from repro.seal.dataset import SEALDataset, train_test_split_indices
from repro.seal.trainer import TrainConfig, train


@pytest.fixture(scope="module")
def task():
    return load_primekg_like(scale=0.12, num_targets=40, rng=0)


def _hang_forever(chunk, slot, record):
    """A worker that never produces anything (module-level: picklable)."""
    time.sleep(3600)


@pytest.fixture
def multicore(monkeypatch):
    """Pretend the host has cores to spare so worker tests exercise the
    real pool even on single-core CI boxes (see worker auto-degrade)."""
    monkeypatch.setattr(loader_mod, "usable_cores", lambda: 4)


def fresh_dataset(task):
    return SEALDataset(task, rng=7)


def batch_stream(loader, epochs=1):
    """Materialize (edge_index, node_features, edge_attr, batch, labels)."""
    out = []
    for _ in range(epochs):
        for batch, labels in loader:
            out.append(
                (
                    batch.edge_index.copy(),
                    batch.node_features.copy(),
                    batch.edge_attr.copy(),
                    batch.batch.copy(),
                    labels.copy(),
                )
            )
    return out


def assert_streams_equal(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        for x, y in zip(ta, tb):
            np.testing.assert_array_equal(x, y)


class TestParallelBitIdentity:
    def test_shuffled_epochs_identical_across_worker_counts(self, task, multicore):
        serial = DataLoader(fresh_dataset(task), batch_size=8, shuffle=True, rng=3)
        with DataLoader(
            fresh_dataset(task), batch_size=8, shuffle=True, rng=3, num_workers=2
        ) as parallel:
            assert_streams_equal(
                batch_stream(serial, epochs=2), batch_stream(parallel, epochs=2)
            )

    def test_cache_accounting_matches_serial(self, task, multicore):
        ds = fresh_dataset(task)
        with DataLoader(ds, batch_size=8, num_workers=2) as loader:
            batch_stream(loader, epochs=2)
        info = ds.cache_info()
        assert info.misses == task.num_links  # extracted exactly once each
        assert info.size == info.capacity == task.num_links

    def test_trained_weights_identical_across_worker_counts(self, task, multicore):
        def run(num_workers):
            ds = fresh_dataset(task)
            tr, te = train_test_split_indices(
                task.num_links, 0.3, labels=task.labels, rng=0
            )
            model = AMDGCNN(
                ds.feature_width,
                task.num_classes,
                edge_dim=task.edge_attr_dim,
                heads=2,
                hidden_dim=8,
                num_conv_layers=2,
                sort_k=6,
                dropout=0.0,
                rng=1,
            )
            result = train(
                model,
                ds,
                tr,
                TrainConfig(epochs=2, batch_size=8, lr=1e-3, num_workers=num_workers),
                eval_indices=te,
                rng=5,
                verbose=False,
            )
            return result, model.state_dict()

        serial_result, serial_state = run(0)
        parallel_result, parallel_state = run(2)
        assert serial_result.losses == parallel_result.losses
        assert serial_result.eval_auc == parallel_result.eval_auc
        assert serial_state.keys() == parallel_state.keys()
        for name in serial_state:
            np.testing.assert_array_equal(serial_state[name], parallel_state[name])


class TestFallback:
    @pytest.mark.fault
    def test_hung_worker_times_out_into_serial(self, task, monkeypatch, multicore):
        from repro import obs

        # Workers run the patched module-level callable; the parent's
        # bounded get() must give up, kill the pool and finish the epoch
        # serially instead of blocking forever on the dead AsyncResult.
        monkeypatch.setattr(loader_mod, "_worker_extract", _hang_forever)
        expected = batch_stream(DataLoader(fresh_dataset(task), batch_size=8))
        with obs.capture() as registry:
            with DataLoader(
                fresh_dataset(task), batch_size=8, num_workers=2, worker_timeout=0.5
            ) as loader:
                got = batch_stream(loader)
                assert loader._pool_broken
        assert registry.counters.get("data.loader.worker_timeouts") == 1.0
        assert_streams_equal(expected, got)

    def test_invalid_worker_timeout(self, task):
        with pytest.raises(ValueError):
            DataLoader(fresh_dataset(task), batch_size=8, worker_timeout=0.0)
        with pytest.raises(ValueError):
            DataLoader(fresh_dataset(task), batch_size=8, worker_timeout=-1.0)

    def test_worker_crash_falls_back_to_serial(self, task, monkeypatch, multicore):
        def boom(chunk, slot, record):
            raise RuntimeError("worker exploded")

        # Forked workers inherit the patched module, so every chunk fails.
        monkeypatch.setattr(loader_mod, "_worker_extract", boom)
        expected = batch_stream(DataLoader(fresh_dataset(task), batch_size=8))
        with DataLoader(fresh_dataset(task), batch_size=8, num_workers=2) as loader:
            got = batch_stream(loader)
            assert loader._pool_broken
        assert_streams_equal(expected, got)

    def test_pool_creation_failure_falls_back(self, task, monkeypatch, multicore):
        def no_pool(self):
            raise OSError("no processes for you")

        monkeypatch.setattr(DataLoader, "_ensure_pool", no_pool)
        expected = batch_stream(DataLoader(fresh_dataset(task), batch_size=8))
        with DataLoader(fresh_dataset(task), batch_size=8, num_workers=2) as loader:
            got = batch_stream(loader)
        assert_streams_equal(expected, got)


class TestWorkerDegrade:
    """num_workers auto-degrades to 0 on single-core hosts (BENCH_loader
    measured the pool as a net slowdown there)."""

    def test_degrades_to_serial_on_one_core(self, task, monkeypatch):
        from repro import obs

        monkeypatch.setattr(loader_mod, "usable_cores", lambda: 1)
        monkeypatch.setattr(loader_mod, "_DEGRADE_WARNED", False)
        with obs.capture() as registry:
            loader = DataLoader(fresh_dataset(task), batch_size=8, num_workers=2)
        assert loader.num_workers == 0
        assert registry.counters.get("data.loader.workers_degraded") == 1.0
        # Degraded loaders run the serial path end to end.
        batch_stream(loader)

    def test_warning_is_one_shot(self, task, monkeypatch):
        calls = []
        monkeypatch.setattr(loader_mod, "usable_cores", lambda: 1)
        monkeypatch.setattr(loader_mod, "_DEGRADE_WARNED", False)
        monkeypatch.setattr(
            loader_mod.logger, "warning", lambda *a, **k: calls.append(a)
        )
        DataLoader(fresh_dataset(task), batch_size=8, num_workers=2)
        DataLoader(fresh_dataset(task), batch_size=8, num_workers=2)
        assert len(calls) == 1

    def test_force_workers_overrides(self, task, monkeypatch):
        monkeypatch.setattr(loader_mod, "usable_cores", lambda: 1)
        loader = DataLoader(
            fresh_dataset(task), batch_size=8, num_workers=2, force_workers=True
        )
        try:
            assert loader.num_workers == 2
        finally:
            loader.close()

    def test_no_degrade_with_spare_cores(self, task, monkeypatch):
        monkeypatch.setattr(loader_mod, "usable_cores", lambda: 4)
        loader = DataLoader(fresh_dataset(task), batch_size=8, num_workers=2)
        try:
            assert loader.num_workers == 2
        finally:
            loader.close()


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
