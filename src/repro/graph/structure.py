"""Core graph container backed by edge lists + CSR adjacency.

:class:`Graph` is the single graph representation used across the
library. Edges are stored as a directed ``(2, E)`` edge list — an
undirected graph stores both arc directions (the convention of PyTorch
Geometric, which the paper's code builds on). A CSR view (``indptr``,
``indices``, ``edge_ids``) is built lazily for O(deg) neighborhood
queries during BFS and subgraph extraction.

Attributes carried per node: an integer ``node_type`` and an optional
dense feature matrix. Per edge: an integer ``edge_type`` and an optional
dense attribute matrix (the paper's edge attributes, e.g. the 2-d
positive/negative one-hot of PrimeKG).

Since the :mod:`repro.store` refactor the arrays themselves live in a
:class:`~repro.store.GraphStorage` — ``Graph`` validates on
construction and exposes the arrays as read-only-by-convention
properties. The storage can be written to disk (:meth:`Graph.save`) and
mapped back (:meth:`Graph.open`), after which every array — the CSR
included — is a read-only numpy memmap shared across processes, and
pickling the graph ships only the directory path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.dtype import FLOAT64

from repro.store.graph_storage import GraphStorage
from repro.utils.arrays import sorted_unique

__all__ = ["Graph"]


class Graph:
    """A (possibly heterogeneous) graph with node/edge types and attributes.

    Parameters
    ----------
    num_nodes:
        Node count ``N``. Nodes are ``0..N-1``.
    edge_index:
        ``(2, E)`` integer array of directed arcs ``(src, dst)``. For an
        undirected graph include both directions (see
        :meth:`from_undirected`).
    node_type:
        Optional ``(N,)`` integer node-type ids (default all zero).
    node_features:
        Optional ``(N, F)`` float matrix of explicit node features.
    edge_type:
        Optional ``(E,)`` integer relation ids (default all zero).
    edge_attr:
        Optional ``(E, D)`` float edge-attribute matrix.
    """

    def __init__(
        self,
        num_nodes: int,
        edge_index: np.ndarray,
        *,
        node_type: Optional[np.ndarray] = None,
        node_features: Optional[np.ndarray] = None,
        edge_type: Optional[np.ndarray] = None,
        edge_attr: Optional[np.ndarray] = None,
    ):
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        if edge_index.size and (edge_index.min() < 0 or edge_index.max() >= num_nodes):
            raise ValueError("edge_index references nodes outside [0, num_nodes)")
        n = int(num_nodes)
        e = int(edge_index.shape[1])
        self._storage = GraphStorage(
            n,
            edge_index,
            node_type=self._check_count_arr(node_type, n, "node_type"),
            edge_type=self._check_count_arr(edge_type, e, "edge_type"),
            node_features=self._check_2d(node_features, n, "node_features"),
            edge_attr=self._check_2d(edge_attr, e, "edge_attr"),
        )

    # ------------------------------------------------------------------ #
    # validation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _check_count_arr(arr: Optional[np.ndarray], rows: int, name: str) -> np.ndarray:
        if arr is None:
            return np.zeros(rows, dtype=np.int64)
        arr = np.asarray(arr, dtype=np.int64)
        if arr.shape != (rows,):
            raise ValueError(f"{name} must have shape ({rows},)")
        return arr

    @staticmethod
    def _check_2d(arr: Optional[np.ndarray], rows: int, name: str) -> Optional[np.ndarray]:
        if arr is None:
            return None
        arr = np.asarray(arr, dtype=FLOAT64)
        if arr.ndim != 2 or arr.shape[0] != rows:
            raise ValueError(f"{name} must have shape ({rows}, D)")
        return arr

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_undirected(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        *,
        node_type: Optional[np.ndarray] = None,
        node_features: Optional[np.ndarray] = None,
        edge_type: Optional[np.ndarray] = None,
        edge_attr: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build a symmetric graph from an ``(M, 2)`` undirected edge list.

        Each undirected edge becomes two arcs sharing its type/attributes.
        Arc ``2*i`` is ``u→v`` and arc ``2*i + 1`` is ``v→u`` for input
        edge ``i``, so callers can map undirected edge ids to arc ids.
        """
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must have shape (M, 2)")
        m = edges.shape[0]
        ei = np.empty((2, 2 * m), dtype=np.int64)
        ei[0, 0::2], ei[1, 0::2] = edges[:, 0], edges[:, 1]
        ei[0, 1::2], ei[1, 1::2] = edges[:, 1], edges[:, 0]
        et = None if edge_type is None else np.repeat(np.asarray(edge_type, dtype=np.int64), 2)
        ea = None if edge_attr is None else np.repeat(np.asarray(edge_attr, dtype=FLOAT64), 2, axis=0)
        return cls(
            num_nodes,
            ei,
            node_type=node_type,
            node_features=node_features,
            edge_type=et,
            edge_attr=ea,
        )

    @classmethod
    def from_storage(cls, storage: GraphStorage) -> "Graph":
        """Wrap an existing :class:`~repro.store.GraphStorage` (no revalidation).

        The storage is trusted — it either came out of a validated graph
        or out of a manifest that graph wrote (:meth:`open`).
        """
        g = cls.__new__(cls)
        g._storage = storage
        return g

    @classmethod
    def open(cls, directory, *, mmap: bool = True) -> "Graph":
        """Open a graph saved by :meth:`save`.

        With ``mmap=True`` every array is a read-only memmap: opening is
        O(1) in graph size, worker processes share the pages, and
        pickling the graph ships only the path. All queries and
        transforms answer bit-identically to the in-memory original.
        """
        return cls.from_storage(GraphStorage.open(directory, mmap=mmap))

    # ------------------------------------------------------------------ #
    # storage delegation
    # ------------------------------------------------------------------ #
    @property
    def is_mmap(self) -> bool:
        """Whether the arrays are read-only on-disk memmaps."""
        return self._storage.mmap

    @property
    def num_nodes(self) -> int:
        return self._storage.num_nodes

    @property
    def edge_index(self) -> np.ndarray:
        return self._storage.edge_index

    @property
    def node_type(self) -> np.ndarray:
        return self._storage.node_type

    @property
    def node_features(self) -> Optional[np.ndarray]:
        return self._storage.node_features

    @property
    def edge_type(self) -> np.ndarray:
        return self._storage.edge_type

    @property
    def edge_attr(self) -> Optional[np.ndarray]:
        return self._storage.edge_attr

    def save(self, directory):
        """Write the graph's arrays (CSR included) under ``directory``.

        Marks the graph as path-backed: pickling it (to a shard worker
        process, say) then ships the path instead of a copy of the arrays.
        """
        return self._storage.save(directory)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of stored (directed) arcs."""
        return self._storage.num_edges

    @property
    def num_node_types(self) -> int:
        return int(self.node_type.max()) + 1 if self.num_nodes else 0

    @property
    def num_edge_types(self) -> int:
        return int(self.edge_type.max()) + 1 if self.num_edges else 0

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-neighbor CSR view ``(indptr, indices, edge_ids)``.

        ``indices[indptr[v]:indptr[v+1]]`` are out-neighbors of ``v`` and
        ``edge_ids`` maps each CSR slot back to its arc in ``edge_index``.
        Built once and cached in the storage (saved graphs load it from
        disk); edge mutation invalidates via :meth:`copy`.
        """
        return self._storage.csr()

    def degree(self) -> np.ndarray:
        """Out-degree of each node."""
        return np.bincount(self.edge_index[0], minlength=self.num_nodes)

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
    def copy(self) -> "Graph":
        """Deep copy into fresh in-memory storage (fresh CSR cache)."""
        return Graph(
            self.num_nodes,
            self.edge_index.copy(),
            node_type=self.node_type.copy(),
            node_features=None if self.node_features is None else self.node_features.copy(),
            edge_type=self.edge_type.copy(),
            edge_attr=None if self.edge_attr is None else self.edge_attr.copy(),
        )

    def without_edges(self, edge_mask: np.ndarray) -> "Graph":
        """A copy with arcs where ``edge_mask`` is True removed."""
        edge_mask = np.asarray(edge_mask, dtype=bool)
        if edge_mask.shape != (self.num_edges,):
            raise ValueError("edge_mask must have one entry per arc")
        keep = ~edge_mask
        return Graph(
            self.num_nodes,
            self.edge_index[:, keep],
            node_type=self.node_type,
            node_features=self.node_features,
            edge_type=self.edge_type[keep],
            edge_attr=None if self.edge_attr is None else self.edge_attr[keep],
        )

    def induced_subgraph(self, nodes: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes`` (order preserved).

        Returns ``(subgraph, node_map)`` where ``node_map[i]`` is the
        original id of subgraph node ``i``. Edge attributes and types
        follow their arcs.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(sorted_unique(nodes)) != len(nodes):
            raise ValueError("nodes must be unique")
        lookup = np.full(self.num_nodes, -1, dtype=np.int64)
        lookup[nodes] = np.arange(len(nodes))
        src, dst = self.edge_index
        keep = (lookup[src] >= 0) & (lookup[dst] >= 0)
        new_ei = np.stack([lookup[src[keep]], lookup[dst[keep]]])
        sub = Graph(
            len(nodes),
            new_ei,
            node_type=self.node_type[nodes],
            node_features=None if self.node_features is None else self.node_features[nodes],
            edge_type=self.edge_type[keep],
            edge_attr=None if self.edge_attr is None else self.edge_attr[keep],
        )
        return sub, nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"node_types={self.num_node_types}, edge_types={self.num_edge_types})"
        )
