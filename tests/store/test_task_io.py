"""save_task / load_task: the on-disk LinkTask round-trip."""

import dataclasses

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.seal import SEALDataset
from repro.store import TASK_FILE, has_task, load_task, save_task
from repro.utils.serialization import write_meta_npz

GRAPH_ARRAYS = ("edge_index", "node_type", "edge_type", "node_features", "edge_attr")


def _with_embeddings(task):
    """``task`` plus a node2vec-style ``(num_nodes, 4)`` embedding table."""
    emb = np.random.default_rng(0).normal(size=(task.graph.num_nodes, 4))
    fc = dataclasses.replace(task.feature_config, embeddings=emb)
    return dataclasses.replace(task, feature_config=fc)


@pytest.fixture(scope="module")
def tasks():
    wordnet = load_dataset("wordnet", scale=0.12, rng=0, num_targets=30)
    return {
        # node features and edge attributes
        "primekg": load_dataset("primekg", scale=0.12, rng=0, num_targets=40),
        # no node features
        "wordnet": wordnet,
        "wordnet_embeddings": _with_embeddings(wordnet),
    }


@pytest.fixture(scope="module")
def task(tasks):
    return tasks["primekg"]


def assert_same_array(a, b):
    """Byte-equal, dtype included (``None`` only matches ``None``)."""
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype
    np.testing.assert_array_equal(a, b)


def assert_same_task(back, task):
    """Every graph array, label and config field of ``back`` matches ``task``."""
    assert back.graph.num_nodes == task.graph.num_nodes
    for name in GRAPH_ARRAYS:
        assert_same_array(getattr(back.graph, name), getattr(task.graph, name))
    assert_same_array(back.pairs, task.pairs)
    assert_same_array(back.labels, task.labels)
    assert back.num_classes == task.num_classes
    assert back.class_names == list(task.class_names)
    assert back.name == task.name
    assert back.subgraph_mode == task.subgraph_mode
    assert back.num_hops == task.num_hops
    assert back.max_subgraph_nodes == task.max_subgraph_nodes
    assert back.edge_attr_dim == task.edge_attr_dim
    fc, bfc = task.feature_config, back.feature_config
    assert (bfc.num_node_types, bfc.use_drnl, bfc.max_drnl_label, bfc.explicit_dim) == (
        fc.num_node_types,
        fc.use_drnl,
        fc.max_drnl_label,
        fc.explicit_dim,
    )
    assert bfc.width == fc.width
    assert_same_array(bfc.embeddings, fc.embeddings)


class TestRoundtrip:
    def test_everything_survives(self, task, tmp_path):
        save_task(tmp_path, task)
        assert has_task(tmp_path)
        back = load_task(tmp_path)
        assert back.graph.is_mmap  # mmap is the default
        assert_same_task(back, task)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "mem"])
    @pytest.mark.parametrize("kind", ["primekg", "wordnet", "wordnet_embeddings"])
    def test_every_kind_survives(self, tasks, kind, mmap, tmp_path):
        task = tasks[kind]
        save_task(tmp_path, task)
        back = load_task(tmp_path, mmap=mmap)
        assert back.graph.is_mmap == mmap
        assert_same_task(back, task)

    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "mem"])
    def test_reloaded_task_extracts_identically(self, task, mmap, tmp_path):
        save_task(tmp_path, task)
        back = load_task(tmp_path, mmap=mmap)
        indices = np.arange(task.num_links)
        b1, y1 = SEALDataset(task, rng=0).batch(indices)
        b2, y2 = SEALDataset(back, rng=0).batch(indices)
        assert b1.num_graphs == b2.num_graphs
        for name in ("edge_index", "node_features", "edge_attr", "batch"):
            assert_same_array(getattr(b2, name), getattr(b1, name))
        assert_same_array(y2, y1)

    def test_full_load_option(self, task, tmp_path):
        save_task(tmp_path, task)
        back = load_task(tmp_path, mmap=False)
        assert not back.graph.is_mmap
        np.testing.assert_array_equal(back.pairs, task.pairs)

    def test_has_task_needs_both_pieces(self, task, tmp_path):
        assert not has_task(tmp_path)
        task.graph.save(tmp_path)  # graph alone is not a saved task
        assert not has_task(tmp_path)
        save_task(tmp_path, task)
        assert has_task(tmp_path)

    def test_failed_save_over_a_saved_task_leaves_no_task(self, tasks, tmp_path, monkeypatch):
        # The graph is written, then the task.npz write dies: the earlier
        # task.npz must not pair itself with the new graph.
        save_task(tmp_path, tasks["primekg"])

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.store.task_io.write_meta_npz", fail)
        with pytest.raises(OSError, match="disk full"):
            save_task(tmp_path, tasks["wordnet"])
        assert not has_task(tmp_path)

    def test_rejects_foreign_npz(self, task, tmp_path):
        task.graph.save(tmp_path)
        write_meta_npz(tmp_path / TASK_FILE, {}, {"kind": "something-else"})
        with pytest.raises(ValueError, match="not a saved link task"):
            load_task(tmp_path)
