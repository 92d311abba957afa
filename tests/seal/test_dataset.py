"""LinkTask / SEALDataset: validation, splits, batching, leakage guard."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_edges
from repro.graph.structure import Graph
from repro.seal.dataset import LinkTask, SEALDataset, train_test_split_indices
from repro.seal.features import FeatureConfig
from repro.data import DataLoader, warm


def make_task(num_targets=20, seed=0, **overrides):
    edges = erdos_renyi_edges(40, 0.1, rng=seed)
    etype = np.arange(len(edges)) % 3
    g = Graph.from_undirected(40, edges, edge_type=etype, edge_attr=np.eye(3)[etype])
    gen = np.random.default_rng(seed)
    pairs = []
    seen = set()
    while len(pairs) < num_targets:
        u, v = gen.integers(0, 40, size=2)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            pairs.append((u, v))
    pairs = np.array(pairs)
    labels = gen.integers(0, 3, size=num_targets)
    kwargs = dict(
        graph=g,
        pairs=pairs,
        labels=labels,
        num_classes=3,
        feature_config=FeatureConfig(num_node_types=1, use_drnl=True),
        edge_attr_dim=3,
        name="test-task",
    )
    kwargs.update(overrides)
    return LinkTask(**kwargs)


class TestLinkTaskValidation:
    def test_basic_properties(self):
        task = make_task()
        assert task.num_links == 20
        assert task.class_counts().sum() == 20
        assert len(task.class_names) == 3

    def test_pairs_shape(self):
        with pytest.raises(ValueError):
            make_task(pairs=np.zeros((5, 3), dtype=int))

    def test_labels_length(self):
        with pytest.raises(ValueError):
            make_task(labels=np.zeros(3, dtype=int))

    def test_labels_range(self):
        task_labels = np.zeros(20, dtype=int)
        task_labels[0] = 7
        with pytest.raises(ValueError):
            make_task(labels=task_labels)

    def test_class_names_length(self):
        with pytest.raises(ValueError):
            make_task(class_names=["a"])


class TestSplit:
    def test_disjoint_and_complete(self):
        tr, te = train_test_split_indices(100, 0.2, rng=0)
        assert len(set(tr) & set(te)) == 0
        assert len(tr) + len(te) == 100
        assert len(te) == 20

    def test_stratified_keeps_small_classes(self):
        labels = np.array([0] * 90 + [1] * 6 + [2] * 4)
        tr, te = train_test_split_indices(100, 0.25, labels=labels, rng=0)
        for c in (0, 1, 2):
            assert (labels[te] == c).sum() >= 1
            assert (labels[tr] == c).sum() >= 1

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split_indices(10, 0.0)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            train_test_split_indices(10, 0.3, labels=np.zeros(5))

    def test_deterministic(self):
        a = train_test_split_indices(50, 0.3, rng=5)
        b = train_test_split_indices(50, 0.3, rng=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestSEALDataset:
    def test_extract_shapes(self):
        ds = SEALDataset(make_task(), rng=0)
        g, feats = ds.extract(0)
        assert feats.shape == (g.num_nodes, ds.feature_width)

    def test_caching_extracts_once(self):
        ds = SEALDataset(make_task(), rng=0)
        g1, f1 = ds.extract(3)
        g2, f2 = ds.extract(3)
        info = ds.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        np.testing.assert_array_equal(g1.edge_index, g2.edge_index)
        np.testing.assert_array_equal(f1, f2)

    def test_warm_fills_store(self):
        ds = SEALDataset(make_task(num_targets=5), rng=0)
        warm(ds)
        info = ds.cache_info()
        assert info.size == info.capacity == 5
        assert ds.store.cache_info().nbytes > 0

    def test_leakage_guard_target_link_removed(self):
        # Even when the target pair IS an edge of the graph, its own
        # subgraph must not contain it.
        edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
        g = Graph.from_undirected(4, edges)
        task = LinkTask(
            graph=g,
            pairs=np.array([[0, 1]]),
            labels=np.array([0]),
            num_classes=2,
            feature_config=FeatureConfig(num_node_types=1, use_drnl=True),
        )
        ds = SEALDataset(task, rng=0)
        sub, _ = ds.extract(0)
        assert not sub.has_edge(0, 1)
        assert not sub.has_edge(1, 0)

    def test_batch_labels_follow_indices(self):
        task = make_task()
        ds = SEALDataset(task, rng=0)
        idx = np.array([4, 7, 2])
        batch, labels = ds.batch(idx)
        np.testing.assert_array_equal(labels, task.labels[idx])
        assert batch.num_graphs == 3
        assert batch.edge_attr.shape[1] == 3

    def test_loader_covers_all(self):
        ds = SEALDataset(make_task(), rng=0)
        seen = 0
        for batch, labels in DataLoader(ds, np.arange(20), 6):
            seen += len(labels)
            assert batch.num_graphs == len(labels)
        assert seen == 20

    def test_loader_shuffle_deterministic(self):
        ds = SEALDataset(make_task(), rng=0)
        runs = []
        for _ in range(2):
            labels_order = []
            for _, labels in DataLoader(ds, np.arange(20), 7, rng=np.random.default_rng(3)):
                labels_order.extend(labels.tolist())
            runs.append(labels_order)
        assert runs[0] == runs[1]

    def test_invalid_batch_size(self):
        ds = SEALDataset(make_task(), rng=0)
        with pytest.raises(ValueError):
            DataLoader(ds, np.arange(5), 0)
