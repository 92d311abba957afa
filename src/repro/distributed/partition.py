"""Graph partitioning for data-parallel training.

Splits a :class:`~repro.graph.Graph` (plus the link set of a
:class:`~repro.seal.LinkTask`) into ``K`` shards. Each shard owns a
deterministic subset of the *links* (ownership follows the source
endpoint's node owner) and materializes a shard-local graph over its
**halo**: every node within ``task.num_hops`` hops of any owned link
endpoint. Because SEAL's enclosing-subgraph extraction never looks past
``num_hops``, extracting an owned link against the shard-local graph is
bit-identical to extracting it against the full graph — the property
the data-parallel trainer's bit-identity guarantee rests on (see
``tests/distributed/test_partition.py``).

Node owners come from a stateless multiplicative hash of the node id
(:func:`hash_node_owners`): deterministic across processes and
platforms (pure uint64 arithmetic), O(N), and independent of the graph
structure.

Shards persist as saved graphs (:meth:`Graph.save
<repro.graph.Graph.save>`; :meth:`GraphPartition.save` /
:meth:`GraphPartition.open`), so worker processes memory-map their shard
zero-copy and pickling a shard graph ships only its path.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

import repro.obs as obs
from repro.graph.structure import Graph
from repro.graph.traversal import k_hop_union
from repro.seal.dataset import LinkTask
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json

__all__ = [
    "PARTITION_FORMAT",
    "Shard",
    "GraphPartition",
    "hash_node_owners",
    "partition_graph",
    "shard_task",
]

logger = logging.getLogger(__name__)

PARTITION_FORMAT = 1
_PARTITION_FILE = "partition.json"
_ASSIGNMENT_FILE = "assignment.npz"
_MEMBERS_FILE = "members.npz"

# splitmix64-style multiplicative constants — fixed forever so hash
# partitions are reproducible across sessions and machines.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)
_HASH_SEED_MULT = np.uint64(0xBF58476D1CE4E5B9)


def hash_node_owners(num_nodes: int, num_shards: int, *, seed: int = 0) -> np.ndarray:
    """Stateless node→shard assignment via a splitmix64-style mix.

    Pure uint64 arithmetic (wrapping is well-defined), so every process
    computes the same owners without communication.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    ids = np.arange(num_nodes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = ids * _HASH_MULT + np.uint64(seed & 0xFFFFFFFFFFFFFFFF) * _HASH_SEED_MULT
        mixed ^= mixed >> np.uint64(31)
        mixed *= _HASH_MULT
        mixed ^= mixed >> np.uint64(29)
    return (mixed % np.uint64(num_shards)).astype(np.int64)


@dataclass
class Shard:
    """One shard of a partitioned task.

    ``graph`` is the halo-induced shard-local graph; ``node_map[i]`` is
    the global id of shard node ``i`` (sorted ascending, so global→local
    relabeling is monotone — the property that keeps shard-local
    extraction bit-identical to full-graph extraction); ``owned_links``
    are the *global* link indices this shard trains on.
    """

    index: int
    graph: Graph
    node_map: np.ndarray
    owned_links: np.ndarray

    @property
    def num_halo_nodes(self) -> int:
        return int(self.node_map.shape[0])


@dataclass
class GraphPartition:
    """A K-way partition of a link task's graph and link set."""

    shards: List[Shard]
    node_owner: np.ndarray
    link_owner: np.ndarray
    num_hops: int
    seed: int
    cut_edges: int = 0
    path: Optional[Path] = field(default=None, compare=False)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def num_links(self) -> int:
        return int(self.link_owner.shape[0])

    def stats(self) -> dict:
        """Partition quality: cut edges, halo sizes, replication factor."""
        num_nodes = int(self.node_owner.shape[0])
        halo_sizes = [s.num_halo_nodes for s in self.shards]
        owned_nodes = np.bincount(self.node_owner, minlength=self.num_shards)
        owned_links = [int(s.owned_links.shape[0]) for s in self.shards]
        total_halo = int(sum(halo_sizes))
        return {
            "num_shards": self.num_shards,
            "num_hops": self.num_hops,
            "seed": self.seed,
            "num_nodes": num_nodes,
            "num_links": self.num_links,
            "cut_edges": int(self.cut_edges),
            "owned_nodes": [int(c) for c in owned_nodes],
            "owned_links": owned_links,
            "halo_nodes": halo_sizes,
            "replication_factor": (total_halo / num_nodes) if num_nodes else 0.0,
        }

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, directory) -> Path:
        """Persist the partition under ``directory``.

        Layout: ``assignment.npz`` (owner vectors), one
        ``shard_NNN/`` per shard — the shard graph as saved by
        :meth:`Graph.save <repro.graph.Graph.save>` plus a
        ``members.npz`` with ``node_map``/``owned_links`` — and
        ``partition.json`` written *last* as the completeness marker
        (the graph's own meta-last protocol). Every file is written
        atomically and an earlier manifest is dropped first, so a
        directory with a manifest is complete.
        """
        directory = Path(directory)
        (directory / _PARTITION_FILE).unlink(missing_ok=True)
        save_arrays(
            directory / _ASSIGNMENT_FILE,
            {"node_owner": self.node_owner, "link_owner": self.link_owner},
        )
        for shard in self.shards:
            sub = directory / f"shard_{shard.index:03d}"
            shard.graph.save(sub)
            save_arrays(
                sub / _MEMBERS_FILE,
                {"node_map": shard.node_map, "owned_links": shard.owned_links},
            )
        meta = {
            "format": "repro-partition",
            "version": PARTITION_FORMAT,
            "num_shards": self.num_shards,
            "num_hops": self.num_hops,
            "seed": self.seed,
            "stats": self.stats(),
        }
        save_json(directory / _PARTITION_FILE, meta)
        self.path = directory
        return directory

    @classmethod
    def open(cls, directory, *, mmap: bool = True) -> "GraphPartition":
        """Reopen a saved partition; shard graphs memory-map zero-copy."""
        directory = Path(directory)
        meta_path = directory / _PARTITION_FILE
        if not meta_path.exists():
            raise FileNotFoundError(
                f"no partition at {directory} (missing {_PARTITION_FILE})"
            )
        meta = load_json(meta_path)
        if meta.get("format") != "repro-partition":
            raise ValueError(f"{meta_path} is not a repro partition manifest")
        if meta.get("version") != PARTITION_FORMAT:
            raise ValueError(
                f"unsupported partition version {meta.get('version')!r}"
            )
        assignment = load_arrays(directory / _ASSIGNMENT_FILE)
        shards = []
        for index in range(int(meta["num_shards"])):
            sub = directory / f"shard_{index:03d}"
            members = load_arrays(sub / _MEMBERS_FILE)
            shards.append(
                Shard(
                    index=index,
                    graph=Graph.open(sub, mmap=mmap),
                    node_map=members["node_map"],
                    owned_links=members["owned_links"],
                )
            )
        return cls(
            shards=shards,
            node_owner=assignment["node_owner"],
            link_owner=assignment["link_owner"],
            num_hops=int(meta["num_hops"]),
            seed=int(meta["seed"]),
            cut_edges=int(meta.get("stats", {}).get("cut_edges", 0)),
            path=directory,
        )


def partition_graph(
    task: LinkTask,
    num_shards: int,
    *,
    seed: int = 0,
) -> GraphPartition:
    """Partition ``task``'s graph and links into ``num_shards`` shards.

    Link ownership follows the owner of the link's source endpoint, so
    the shard→link assignment is a pure function of ``seed``
    and the graph — every process derives the same split. Each shard's
    halo covers ``task.num_hops`` hops around all owned-link endpoints
    (positive and negative pairs alike), which is exactly the
    neighborhood SEAL extraction can reach.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    graph = task.graph
    node_owner = hash_node_owners(graph.num_nodes, num_shards, seed=seed)
    link_owner = node_owner[task.pairs[:, 0]]
    src, dst = graph.edge_index
    cut_edges = int(np.count_nonzero(node_owner[src] != node_owner[dst]))

    shards: List[Shard] = []
    for index in range(num_shards):
        owned_links = np.flatnonzero(link_owner == index)
        endpoints = task.pairs[owned_links].reshape(-1)
        halo = k_hop_union(graph, endpoints, task.num_hops)
        shard_graph, node_map = graph.induced_subgraph(halo)
        shards.append(
            Shard(
                index=index,
                graph=shard_graph,
                node_map=node_map,
                owned_links=owned_links,
            )
        )
    part = GraphPartition(
        shards=shards,
        node_owner=node_owner,
        link_owner=link_owner,
        num_hops=task.num_hops,
        seed=seed,
        cut_edges=cut_edges,
    )
    if obs.enabled():
        obs.count("distributed.partition.cut_edges", cut_edges)
        obs.count(
            "distributed.partition.halo_nodes",
            int(sum(s.num_halo_nodes for s in shards)),
        )
        obs.count("distributed.partition.owned_links", part.num_links)
        obs.gauge(
            "distributed.partition.replication_factor",
            part.stats()["replication_factor"],
        )
    logger.info(
        "partitioned %d nodes / %d links into %d shards: "
        "cut=%d replication=%.2f",
        graph.num_nodes,
        part.num_links,
        num_shards,
        cut_edges,
        part.stats()["replication_factor"],
    )
    return part


def shard_task(task: LinkTask, shard: Shard) -> LinkTask:
    """The shard-local view of ``task`` for one shard.

    Keeps *global* link indexing: the returned task has the same number
    of links as the full task, with owned rows' endpoints remapped to
    shard-local node ids and every non-owned row set to ``(-1, -1)``
    (inert — extraction on one fails loudly, and the trainer never asks
    for them). Global indexing means the shard dataset's extraction
    streams (keyed ``(task.name, link index)``), labels, and store slots
    all line up with the full-graph dataset — the bit-identity
    invariant.
    """
    graph = task.graph
    lookup = np.full(graph.num_nodes, -1, dtype=np.int64)
    lookup[shard.node_map] = np.arange(shard.node_map.shape[0], dtype=np.int64)
    pairs = np.full_like(task.pairs, -1)
    owned = shard.owned_links
    pairs[owned] = lookup[task.pairs[owned]]
    if (pairs[owned] < 0).any():
        raise AssertionError("owned link endpoint missing from shard halo")
    config = task.feature_config
    if config.embeddings is not None:
        config = dataclasses.replace(
            config, embeddings=config.embeddings[shard.node_map]
        )
    return LinkTask(
        graph=shard.graph,
        pairs=pairs,
        labels=task.labels,
        num_classes=task.num_classes,
        feature_config=config,
        class_names=task.class_names,
        name=task.name,
        subgraph_mode=task.subgraph_mode,
        num_hops=task.num_hops,
        max_subgraph_nodes=task.max_subgraph_nodes,
        edge_attr_dim=task.edge_attr_dim,
    )
