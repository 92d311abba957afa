"""Partitioner invariants: determinism, halo sufficiency, bit-identity.

The load-bearing property is the last one: extracting an owned link
against its shard-local graph must produce byte-for-byte the same
packed sample as extracting it against the full graph — that is the
foundation the data-parallel trainer's bit-identity contract stands on.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.obs as obs
from repro.data.extraction import build_packed_samples
from repro.distributed import (
    GraphPartition,
    hash_node_owners,
    partition_graph,
    shard_task,
)
from repro.graph import Graph, k_hop_union
from repro.graph.generators import erdos_renyi_edges
from repro.seal.dataset import LinkTask, sample_negative_pairs
from repro.seal.features import FeatureConfig
from tests.oracles import bfs_within, packed_link


def small_task(num_nodes=80, num_pos=40, *, embeddings=False, rng=7):
    gen = np.random.default_rng(rng)
    edges = erdos_renyi_edges(num_nodes, 0.06, rng=gen)
    graph = Graph.from_undirected(
        num_nodes,
        edges,
        node_type=gen.integers(0, 3, num_nodes),
        edge_type=np.zeros(len(edges), dtype=np.int64),
        edge_attr=gen.normal(size=(len(edges), 3)),
    )
    pos = edges[:num_pos]
    neg = sample_negative_pairs(graph, num_pos, rng=np.random.default_rng(3))
    pairs = np.concatenate([pos, neg])
    labels = np.concatenate(
        [np.ones(num_pos, dtype=np.int64), np.zeros(num_pos, dtype=np.int64)]
    )
    config = FeatureConfig(num_node_types=3, use_drnl=True, max_drnl_label=10)
    if embeddings:
        config = dataclasses.replace(
            config, embeddings=gen.normal(size=(num_nodes, 4))
        )
    return LinkTask(
        graph=graph,
        pairs=pairs,
        labels=labels,
        num_classes=2,
        feature_config=config,
        num_hops=2,
        max_subgraph_nodes=30,
        edge_attr_dim=3,
    )


class TestKHopUnion:
    def test_matches_per_source_union(self):
        task = small_task()
        gen = np.random.default_rng(0)
        seeds = gen.choice(task.graph.num_nodes, size=9, replace=False)
        for k in (0, 1, 2, 3):
            expect = np.unique(
                np.concatenate(
                    [np.flatnonzero(bfs_within(task.graph, int(s), k) >= 0) for s in seeds]
                )
            )
            got = k_hop_union(task.graph, seeds, k)
            np.testing.assert_array_equal(got, expect)

    def test_empty_sources(self):
        task = small_task()
        assert k_hop_union(task.graph, np.empty(0, dtype=np.int64), 2).size == 0

    def test_out_of_range_source_rejected(self):
        task = small_task()
        with pytest.raises(ValueError, match="out of range"):
            k_hop_union(task.graph, np.array([task.graph.num_nodes]), 1)


class TestOwnerAssignment:
    def test_hash_is_deterministic_and_covers_all_shards(self):
        a = hash_node_owners(5000, 4, seed=3)
        b = hash_node_owners(5000, 4, seed=3)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) == {0, 1, 2, 3}
        # Roughly balanced: no shard under half or over double its share.
        counts = np.bincount(a, minlength=4)
        assert counts.min() > 5000 / 4 / 2 and counts.max() < 5000 / 4 * 2

    def test_hash_seed_changes_assignment(self):
        assert not np.array_equal(
            hash_node_owners(1000, 4, seed=0), hash_node_owners(1000, 4, seed=1)
        )


class TestPartitionGraph:
    def test_links_partitioned_exactly(self):
        task = small_task()
        part = partition_graph(task, 3, seed=5)
        owned = np.concatenate([s.owned_links for s in part.shards])
        np.testing.assert_array_equal(np.sort(owned), np.arange(task.num_links))
        assert part.num_shards == 3
        assert part.num_links == task.num_links

    def test_link_owner_follows_source_endpoint(self):
        task = small_task()
        part = partition_graph(task, 3, seed=5)
        np.testing.assert_array_equal(
            part.link_owner, part.node_owner[task.pairs[:, 0]]
        )

    def test_stats_and_counters(self):
        task = small_task()
        with obs.capture() as reg:
            part = partition_graph(task, 3, seed=5)
        stats = part.stats()
        assert stats["num_shards"] == 3
        assert stats["cut_edges"] > 0
        assert stats["replication_factor"] >= 1.0
        assert sum(stats["owned_links"]) == task.num_links
        assert reg.counters["distributed.partition.cut_edges"] == stats["cut_edges"]
        assert reg.counters["distributed.partition.halo_nodes"] == sum(
            stats["halo_nodes"]
        )
        assert (
            reg.gauges["distributed.partition.replication_factor"]
            == stats["replication_factor"]
        )

    def test_halo_contains_every_owned_endpoint_neighborhood(self):
        task = small_task()
        part = partition_graph(task, 4, seed=9)
        for shard in part.shards:
            want = k_hop_union(
                task.graph, task.pairs[shard.owned_links].reshape(-1), task.num_hops
            )
            np.testing.assert_array_equal(shard.node_map, want)


class TestShardExtractionBitIdentity:
    @pytest.mark.parametrize("embeddings", [False, True])
    def test_owned_links_extract_identically(self, embeddings):
        task = small_task(embeddings=embeddings)
        full = build_packed_samples(task, 0, list(range(task.num_links)))
        part = partition_graph(task, 3, seed=5)
        for shard in part.shards:
            if shard.owned_links.size == 0:
                continue
            local = shard_task(task, shard)
            assert local.name == task.name  # same extraction stream keys
            samples = build_packed_samples(local, 0, list(shard.owned_links))
            for pos, gi in enumerate(shard.owned_links):
                ref, sample = packed_link(full, gi), packed_link(samples, pos)
                np.testing.assert_array_equal(ref.features, sample.features)
                np.testing.assert_array_equal(ref.edge_index, sample.edge_index)
                np.testing.assert_array_equal(ref.edge_attr, sample.edge_attr)

    def test_non_owned_rows_are_inert(self):
        task = small_task()
        part = partition_graph(task, 3, seed=5)
        shard = part.shards[0]
        local = shard_task(task, shard)
        not_owned = np.setdiff1d(np.arange(task.num_links), shard.owned_links)
        assert (local.pairs[not_owned] == -1).all()
        with pytest.raises(Exception):
            build_packed_samples(local, 0, [int(not_owned[0])])


class TestPersistence:
    def test_save_open_round_trip(self, tmp_path):
        task = small_task()
        part = partition_graph(task, 3, seed=5)
        part.save(tmp_path / "part")
        reopened = GraphPartition.open(tmp_path / "part")
        assert reopened.num_shards == 3
        assert reopened.cut_edges == part.cut_edges
        np.testing.assert_array_equal(reopened.node_owner, part.node_owner)
        np.testing.assert_array_equal(reopened.link_owner, part.link_owner)
        for a, b in zip(part.shards, reopened.shards):
            assert b.graph.is_mmap  # zero-copy reopen
            np.testing.assert_array_equal(a.node_map, b.node_map)
            np.testing.assert_array_equal(a.owned_links, b.owned_links)
            np.testing.assert_array_equal(a.graph.edge_index, b.graph.edge_index)
            for x, y in zip(a.graph.csr(), b.graph.csr()):
                np.testing.assert_array_equal(x, y)

    def test_reopened_shards_extract_identically(self, tmp_path):
        task = small_task()
        part = partition_graph(task, 2, seed=5)
        shard = part.shards[0]
        before = build_packed_samples(shard_task(task, shard), 0, list(shard.owned_links))
        part.save(tmp_path / "part")
        reopened = GraphPartition.open(tmp_path / "part")
        after = build_packed_samples(
            shard_task(task, reopened.shards[0]), 0, list(shard.owned_links)
        )
        for name, x, y in zip(before._fields, before, after):
            np.testing.assert_array_equal(x, y, err_msg=name)

    def test_manifest_naming_a_partition_method_still_opens(self, tmp_path):
        # Manifests written before hash became the only partitioner carry
        # a "method" entry; the owner vectors on disk are all that count.
        task = small_task()
        part = partition_graph(task, 2, seed=5)
        part.save(tmp_path / "part")
        manifest = tmp_path / "part" / "partition.json"
        meta = json.loads(manifest.read_text())
        meta["method"] = meta["stats"]["method"] = "greedy"
        manifest.write_text(json.dumps(meta))
        reopened = GraphPartition.open(tmp_path / "part")
        np.testing.assert_array_equal(reopened.node_owner, part.node_owner)
        assert reopened.stats() == part.stats()

    @pytest.mark.parametrize("over_earlier_save", [False, True])
    def test_save_failing_inside_a_shard_leaves_no_manifest(
        self, tmp_path, monkeypatch, over_earlier_save
    ):
        # The second shard's members.npz write dies half-way, in a fresh
        # directory or over an earlier save: no manifest, no truncated or
        # temporary file, and open() finds no partition.
        directory = tmp_path / "part"
        if over_earlier_save:
            partition_graph(small_task(), 3, seed=1).save(directory)
        part = partition_graph(small_task(), 2, seed=5)
        real_savez = np.savez
        member_writes = []

        def savez(file, **arrays):
            if "node_map" in arrays:
                member_writes.append(file)
                if len(member_writes) == 2:
                    file.write(b"PK\x03\x04")
                    raise OSError("disk full")
            return real_savez(file, **arrays)

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            part.save(directory)
        monkeypatch.undo()
        assert not (directory / "partition.json").exists()
        assert not list(directory.rglob("*.tmp"))
        assert (directory / "shard_001" / "members.npz").exists() == over_earlier_save
        for archive in directory.rglob("*.npz"):
            with np.load(archive) as npz:  # a truncated archive raises here
                assert npz.files
        with pytest.raises(FileNotFoundError):
            GraphPartition.open(directory)

    def test_open_missing_or_foreign_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            GraphPartition.open(tmp_path / "nope")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "partition.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro partition"):
            GraphPartition.open(bad)
