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

A graph can be written to disk (:meth:`Graph.save`: one ``.npy`` per
array, the CSR included, then a ``meta.json`` manifest) and mapped back
(:meth:`Graph.open`), after which every array is a read-only numpy
memmap shared across processes, and pickling the graph ships only the
directory path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.nn.dtype import FLOAT64
from repro.utils.arrays import sorted_unique
from repro.utils.serialization import load_json, save_json, save_npy

__all__ = ["Graph", "is_saved_graph"]

#: Manifest of a saved graph directory, written after every array.
_META_FILE = "meta.json"
_FORMAT = "repro-graph-storage"
#: On-disk format version; bumped on any layout change.
_FORMAT_VERSION = 1
_CSR_ARRAYS = ("csr_indptr", "csr_indices", "csr_edge_ids")


def is_saved_graph(directory) -> bool:
    """Whether ``directory`` holds a complete graph written by :meth:`Graph.save`.

    The manifest is written last, so its presence means every array is
    in place.
    """
    return (Path(directory) / _META_FILE).exists()


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
        self._bind(
            n,
            edge_index,
            node_type=self._check_count_arr(node_type, n, "node_type"),
            edge_type=self._check_count_arr(edge_type, e, "edge_type"),
            node_features=self._check_2d(node_features, n, "node_features"),
            edge_attr=self._check_2d(edge_attr, e, "edge_attr"),
        )

    def _bind(
        self,
        num_nodes: int,
        edge_index: np.ndarray,
        *,
        node_type: np.ndarray,
        edge_type: np.ndarray,
        node_features: Optional[np.ndarray],
        edge_attr: Optional[np.ndarray],
        csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
        path: Optional[Path] = None,
    ) -> "Graph":
        self.num_nodes = int(num_nodes)
        self.edge_index = edge_index
        self.node_type = node_type
        self.edge_type = edge_type
        self.node_features = node_features
        self.edge_attr = edge_attr
        self._csr = csr
        # The directory an mmap-opened graph maps; None for in-memory arrays.
        self._path = path
        return self

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
    def trusted(
        cls,
        num_nodes: int,
        edge_index: np.ndarray,
        *,
        node_type: np.ndarray,
        edge_type: np.ndarray,
        node_features: Optional[np.ndarray],
        edge_attr: Optional[np.ndarray],
        csr: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> "Graph":
        """Wrap arrays already known to be valid: no checks, no copies, O(1).

        For arrays that came out of a validated graph (a stream snapshot's
        spliced state). ``csr`` must be exactly what :meth:`csr` would
        build from ``edge_index``.
        """
        return cls.__new__(cls)._bind(
            num_nodes, edge_index, node_type=node_type, edge_type=edge_type,
            node_features=node_features, edge_attr=edge_attr, csr=csr,
        )

    @classmethod
    def open(cls, directory, *, mmap: bool = True) -> "Graph":
        """Open a graph saved by :meth:`save`, trusting its manifest.

        With ``mmap=True`` (the default) every array — CSR included — is
        a read-only memmap: opening is O(1) in graph size, nothing is
        read until touched, worker processes share the pages, and
        pickling the graph ships only the path. With ``mmap=False`` the
        arrays are fully loaded. All queries and transforms answer
        bit-identically to the in-memory original.
        """
        directory = Path(directory)
        if not is_saved_graph(directory):
            raise FileNotFoundError(f"{directory} is not a saved graph directory")
        meta = load_json(directory / _META_FILE)
        if meta.get("format") != _FORMAT:
            raise ValueError(f"{directory} manifest has unknown format")
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"saved graph version {meta.get('version')} unsupported "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        mode = "r" if mmap else None

        def load(name: str) -> np.ndarray:
            return np.load(directory / f"{name}.npy", mmap_mode=mode)

        graph = cls.__new__(cls)._bind(
            meta["num_nodes"],
            load("edge_index"),
            node_type=load("node_type"),
            edge_type=load("edge_type"),
            node_features=load("node_features") if meta["has_node_features"] else None,
            edge_attr=load("edge_attr") if meta["has_edge_attr"] else None,
            csr=tuple(load(name) for name in _CSR_ARRAYS),
            path=directory if mmap else None,
        )
        obs.count("store.mmap.opens" if mmap else "store.full.opens")
        return graph

    def save(self, directory) -> Path:
        """Write every array (CSR included) under ``directory``.

        One ``.npy`` per array — the layout ``np.load(mmap_mode="r")``
        can map directly (``.npz`` members cannot be mapped). Every file
        is written atomically and ``meta.json`` last, so a directory
        with a manifest is complete (:func:`is_saved_graph`); saving over
        an earlier save drops its manifest first. The CSR is the one
        :meth:`csr` builds, so opened graphs never pay its sort. Returns
        ``directory``.
        """
        directory = Path(directory)
        (directory / _META_FILE).unlink(missing_ok=True)
        arrays = {
            "edge_index": self.edge_index,
            "node_type": self.node_type,
            "edge_type": self.edge_type,
            **dict(zip(_CSR_ARRAYS, self.csr())),
        }
        if self.node_features is not None:
            arrays["node_features"] = self.node_features
        if self.edge_attr is not None:
            arrays["edge_attr"] = self.edge_attr
        for name, arr in arrays.items():
            save_npy(directory / f"{name}.npy", arr)
        save_json(
            directory / _META_FILE,
            {
                "format": _FORMAT,
                "version": _FORMAT_VERSION,
                "num_nodes": self.num_nodes,
                "num_edges": self.num_edges,
                "has_node_features": self.node_features is not None,
                "has_edge_attr": self.edge_attr is not None,
            },
        )
        obs.count("store.graph.saves")
        return directory

    @property
    def is_mmap(self) -> bool:
        """Whether the arrays are read-only on-disk memmaps."""
        return self._path is not None

    def __reduce_ex__(self, protocol):
        # An mmap-backed graph pickles as its path: workers re-open the
        # maps instead of receiving (and duplicating) the array payload.
        if self._path is not None:
            return (Graph.open, (str(self._path),))
        return super().__reduce_ex__(protocol)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of stored (directed) arcs."""
        return int(self.edge_index.shape[1])

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
        Built once (a stable argsort of the source row) and cached; saved
        graphs load the one :meth:`save` wrote. Transforms return new
        graphs, so a cached CSR never goes stale.
        """
        if self._csr is None:
            src, dst = self.edge_index
            order = np.argsort(src, kind="stable")
            sorted_src = src[order]
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.add.at(indptr, sorted_src + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._csr = (indptr, dst[order], order)
        return self._csr

    def degree(self) -> np.ndarray:
        """Out-degree of each node."""
        return np.bincount(self.edge_index[0], minlength=self.num_nodes)

    # ------------------------------------------------------------------ #
    # transforms
    # ------------------------------------------------------------------ #
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
