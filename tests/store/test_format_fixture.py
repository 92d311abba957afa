"""The on-disk formats, pinned by a committed fixture.

``format_v1/`` holds a small saved task (a graph with node features and
edge attributes, its CSR and ``task.npz``) and a 2-shard partition of
it. :func:`write_fixture` wrote it with the code of commit ``4e2cec5``,
when graph arrays still lived in a separate storage class. These tests
check that today's readers open those files bit-identically and that
today's writers reproduce them: the same file set, the same ``.npy``
bytes and the same ``meta.json`` bytes. Regenerate the fixture only for
a deliberate format change, and bump the format version with it::

    PYTHONPATH=src python -c "from tests.store.test_format_fixture import \\
        write_fixture; write_fixture('tests/store/format_v1')"
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data.extraction import build_packed_samples
from repro.distributed import GraphPartition, partition_graph, shard_task
from repro.graph.structure import Graph
from repro.seal.dataset import LinkTask
from repro.seal.features import FeatureConfig
from repro.store import load_task, save_task

FIXTURE = Path(__file__).parent / "format_v1"
GRAPH_ARRAYS = ("edge_index", "node_type", "edge_type", "node_features", "edge_attr")


def fixture_task() -> LinkTask:
    """The 12-node task the fixture holds; every value is exact in binary."""
    ring = [(i, (i + 1) % 12) for i in range(12)]
    chords = [(0, 6), (3, 9)]
    edges = np.array(ring + chords, dtype=np.int64)
    m = len(edges)
    graph = Graph.from_undirected(
        12,
        edges,
        node_type=np.arange(12) % 2,
        node_features=np.arange(36).reshape(12, 3) / 8.0,
        edge_type=np.arange(m) % 3,
        edge_attr=np.column_stack([np.arange(m) / 4.0, -np.arange(m) / 8.0]),
    )
    return LinkTask(
        graph=graph,
        pairs=np.array([[0, 2], [1, 3], [6, 8], [7, 9]]),
        labels=np.array([0, 1, 2, 0]),
        num_classes=3,
        feature_config=FeatureConfig(
            num_node_types=2,
            explicit_dim=3,
            embeddings=np.arange(24).reshape(12, 2) / 16.0,
        ),
        class_names=["a", "b", "c"],
        name="format-fixture",
        num_hops=1,
        max_subgraph_nodes=8,
        edge_attr_dim=2,
    )


def write_fixture(directory) -> None:
    """Write ``task/`` and ``partition/`` (2 shards) under ``directory``."""
    task = fixture_task()
    save_task(Path(directory) / "task", task)
    partition_graph(task, 2, seed=1).save(Path(directory) / "partition")


def file_set(directory: Path) -> set:
    return {p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file()}


def assert_same_array(a, b):
    """Byte-equal, dtype included (``None`` only matches ``None``)."""
    if a is None or b is None:
        assert a is None and b is None
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a, b)


def assert_same_graph(back: Graph, graph: Graph) -> None:
    assert back.num_nodes == graph.num_nodes
    for name in GRAPH_ARRAYS:
        assert_same_array(getattr(back, name), getattr(graph, name))
    for x, y in zip(back.csr(), graph.csr()):
        assert_same_array(x, y)


def assert_same_extraction(back: LinkTask, task: LinkTask, indices) -> None:
    before = build_packed_samples(task, 0, indices)
    after = build_packed_samples(back, 0, indices)
    for name, x, y in zip(before._fields, before, after):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)


@pytest.mark.parametrize("mmap", [True, False])
def test_graph_open_reads_fixture(mmap):
    back = Graph.open(FIXTURE / "task", mmap=mmap)
    assert back.is_mmap is mmap
    assert_same_graph(back, fixture_task().graph)


def test_load_task_reads_fixture():
    task = fixture_task()
    back = load_task(FIXTURE / "task")
    assert back.graph.is_mmap
    assert_same_graph(back.graph, task.graph)
    assert_same_array(back.pairs, task.pairs)
    assert_same_array(back.labels, task.labels)
    assert_same_array(back.feature_config.embeddings, task.feature_config.embeddings)
    assert back.feature_config.explicit_dim == task.feature_config.explicit_dim
    assert (back.name, back.num_hops, back.max_subgraph_nodes, back.edge_attr_dim) == (
        "format-fixture", 1, 8, 2,
    )
    assert back.class_names == ["a", "b", "c"]
    assert_same_extraction(back, task, [0, 1, 2, 3])


def test_partition_open_reads_fixture():
    task = fixture_task()
    part = partition_graph(task, 2, seed=1)
    back = GraphPartition.open(FIXTURE / "partition")
    assert back.num_shards == 2 and back.cut_edges == part.cut_edges
    assert back.stats() == part.stats()
    assert_same_array(back.node_owner, part.node_owner)
    assert_same_array(back.link_owner, part.link_owner)
    for a, b in zip(part.shards, back.shards):
        assert b.graph.is_mmap
        assert_same_array(b.node_map, a.node_map)
        assert_same_array(b.owned_links, a.owned_links)
        assert_same_graph(b.graph, a.graph)
        assert_same_extraction(shard_task(task, b), shard_task(task, a), list(a.owned_links))


def test_save_reproduces_fixture_files(tmp_path):
    write_fixture(tmp_path)
    assert file_set(tmp_path) == file_set(FIXTURE)
    for rel in sorted(file_set(FIXTURE)):
        name = Path(rel).name
        if name.endswith(".npy") or name == "meta.json":
            assert (tmp_path / rel).read_bytes() == (FIXTURE / rel).read_bytes(), rel
    manifest = Path("partition") / "partition.json"
    assert json.loads((tmp_path / manifest).read_text()) == json.loads(
        (FIXTURE / manifest).read_text()
    )
