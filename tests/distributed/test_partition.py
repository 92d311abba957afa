"""Partitioner invariants: determinism, halo sufficiency, bit-identity.

The load-bearing property is the last one: extracting an owned link
against its shard-local graph must produce byte-for-byte the same
packed sample as extracting it against the full graph — that is the
foundation the data-parallel trainer's bit-identity contract stands on.
"""

import dataclasses

import numpy as np
import pytest

import repro.obs as obs
from repro.data.extraction import build_packed_samples
from repro.distributed import (
    GraphPartition,
    greedy_node_owners,
    hash_node_owners,
    partition_graph,
    shard_task,
)
from repro.graph import Graph, bfs_distances, k_hop_union
from repro.graph.generators import erdos_renyi_edges
from repro.seal.dataset import LinkTask, sample_negative_pairs
from repro.seal.features import FeatureConfig


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
                    [np.flatnonzero(bfs_distances(task.graph, int(s), k) >= 0) for s in seeds]
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

    def test_greedy_respects_capacity_and_determinism(self):
        task = small_task()
        a = greedy_node_owners(task.graph, 3, seed=5)
        b = greedy_node_owners(task.graph, 3, seed=5)
        np.testing.assert_array_equal(a, b)
        assert (a >= 0).all()
        capacity = int(np.ceil(task.graph.num_nodes / 3 * 1.1))
        assert np.bincount(a, minlength=3).max() <= capacity

    def test_greedy_cuts_fewer_edges_than_hash(self):
        # On a graph with any locality the affinity heuristic must beat
        # random assignment; ER graphs are the worst case but greedy
        # still wins by construction (it never does worse than the
        # zero-affinity choice).
        task = small_task(num_nodes=200, num_pos=80)
        src, dst = task.graph.edge_index
        hash_cut = int(
            np.count_nonzero(
                hash_node_owners(task.graph.num_nodes, 3, seed=5)[src]
                != hash_node_owners(task.graph.num_nodes, 3, seed=5)[dst]
            )
        )
        greedy = greedy_node_owners(task.graph, 3, seed=5)
        greedy_cut = int(np.count_nonzero(greedy[src] != greedy[dst]))
        assert greedy_cut < hash_cut


class TestPartitionGraph:
    @pytest.mark.parametrize("method", ["hash", "greedy"])
    def test_links_partitioned_exactly(self, method):
        task = small_task()
        part = partition_graph(task, 3, method=method, seed=5)
        owned = np.concatenate([s.owned_links for s in part.shards])
        np.testing.assert_array_equal(np.sort(owned), np.arange(task.num_links))
        assert part.num_shards == 3
        assert part.num_links == task.num_links

    def test_link_owner_follows_source_endpoint(self):
        task = small_task()
        part = partition_graph(task, 3, method="hash", seed=5)
        np.testing.assert_array_equal(
            part.link_owner, part.node_owner[task.pairs[:, 0]]
        )

    def test_stats_and_counters(self):
        task = small_task()
        with obs.capture() as reg:
            part = partition_graph(task, 3, method="hash", seed=5)
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

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown partition method"):
            partition_graph(small_task(), 2, method="metis")

    def test_halo_contains_every_owned_endpoint_neighborhood(self):
        task = small_task()
        part = partition_graph(task, 4, method="hash", seed=9)
        for shard in part.shards:
            want = k_hop_union(
                task.graph, task.pairs[shard.owned_links].reshape(-1), task.num_hops
            )
            np.testing.assert_array_equal(shard.node_map, want)


class TestShardExtractionBitIdentity:
    @pytest.mark.parametrize("method", ["hash", "greedy"])
    @pytest.mark.parametrize("embeddings", [False, True])
    def test_owned_links_extract_identically(self, method, embeddings):
        task = small_task(embeddings=embeddings)
        full = build_packed_samples(task, 0, list(range(task.num_links)))
        part = partition_graph(task, 3, method=method, seed=5)
        for shard in part.shards:
            if shard.owned_links.size == 0:
                continue
            local = shard_task(task, shard)
            assert local.name == task.name  # same extraction stream keys
            samples = build_packed_samples(local, 0, list(shard.owned_links))
            for gi, sample in zip(shard.owned_links, samples):
                ref = full[gi]
                np.testing.assert_array_equal(ref.node_features, sample.node_features)
                np.testing.assert_array_equal(ref.edge_index, sample.edge_index)
                np.testing.assert_array_equal(ref.edge_attr, sample.edge_attr)

    def test_non_owned_rows_are_inert(self):
        task = small_task()
        part = partition_graph(task, 3, method="hash", seed=5)
        shard = part.shards[0]
        local = shard_task(task, shard)
        not_owned = np.setdiff1d(np.arange(task.num_links), shard.owned_links)
        assert (local.pairs[not_owned] == -1).all()
        with pytest.raises(Exception):
            build_packed_samples(local, 0, [int(not_owned[0])])


class TestPersistence:
    def test_save_open_round_trip(self, tmp_path):
        task = small_task()
        part = partition_graph(task, 3, method="greedy", seed=5)
        part.save(tmp_path / "part")
        reopened = GraphPartition.open(tmp_path / "part")
        assert reopened.num_shards == 3
        assert reopened.method == "greedy"
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
        part = partition_graph(task, 2, method="hash", seed=5)
        shard = part.shards[0]
        before = build_packed_samples(shard_task(task, shard), 0, list(shard.owned_links))
        part.save(tmp_path / "part")
        reopened = GraphPartition.open(tmp_path / "part")
        after = build_packed_samples(
            shard_task(task, reopened.shards[0]), 0, list(shard.owned_links)
        )
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x.node_features, y.node_features)
            np.testing.assert_array_equal(x.edge_index, y.edge_index)

    def test_open_missing_or_foreign_dir_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            GraphPartition.open(tmp_path / "nope")
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "partition.json").write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a repro partition"):
            GraphPartition.open(bad)
