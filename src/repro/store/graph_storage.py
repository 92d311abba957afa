"""Array-backed frozen graph storage, in memory or as on-disk memmaps.

:class:`GraphStorage` owns every array of one
:class:`~repro.graph.structure.Graph` — the ``(2, E)`` edge list, the
node/edge type and attribute matrices, and the lazily built CSR view
(``indptr``, ``indices``, ``edge_ids``). The arrays can live in two
places:

* **in memory** — the default, exactly what ``Graph`` held before this
  layer existed;
* **on disk** — :meth:`GraphStorage.save` writes each array as its own
  ``.npy`` file plus a ``meta.json`` manifest, and
  :meth:`GraphStorage.open` maps them back with
  ``np.load(..., mmap_mode="r")``. Mapped pages are shared read-only
  across every process that opens the directory, so worker processes
  touch the same physical memory instead of each holding a pickled copy.

Bit-identity contract: :meth:`save` precomputes the CSR with the exact
construction :meth:`csr` uses (stable argsort of the source row), so an
opened storage answers every adjacency query with the same bytes the
in-memory graph would. Mmap-opened arrays are read-only (writes raise),
which is also what makes the cross-process sharing safe.

Pickling an mmap-backed storage serializes only the directory path —
the receiving process re-opens the maps — so sending a graph to a
worker costs a few hundred bytes regardless of graph size.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import obs

__all__ = ["STORAGE_VERSION", "GraphStorage"]

#: On-disk format version; bumped on any layout change.
STORAGE_VERSION = 1

_META_FILE = "meta.json"
_CSR_ARRAYS = ("csr_indptr", "csr_indices", "csr_edge_ids")


def _open_mmap(path: str) -> "GraphStorage":
    """Module-level unpickle hook (see :meth:`GraphStorage.__reduce_ex__`)."""
    return GraphStorage.open(path, mmap=True)


def _write_npy(directory: Path, name: str, arr: np.ndarray) -> None:
    """Atomically write ``arr`` as ``<name>.npy`` (tmp sibling + rename)."""
    tmp = directory / f".{name}.npy.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.save(fh, np.ascontiguousarray(arr))
        os.replace(tmp, directory / f"{name}.npy")
    finally:
        if tmp.exists():
            tmp.unlink()


class GraphStorage:
    """The frozen array set backing one graph.

    Construction performs no validation — :class:`~repro.graph.structure.Graph`
    validates shapes before building a storage, and :meth:`open` trusts
    the manifest it wrote. ``node_features`` / ``edge_attr`` are ``None``
    when the graph carries none.
    """

    def __init__(
        self,
        num_nodes: int,
        edge_index: np.ndarray,
        *,
        node_type: np.ndarray,
        edge_type: np.ndarray,
        node_features: Optional[np.ndarray] = None,
        edge_attr: Optional[np.ndarray] = None,
        csr: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
        path: Optional[Path] = None,
        mmap: bool = False,
    ):
        self.num_nodes = int(num_nodes)
        self.edge_index = edge_index
        self.node_type = node_type
        self.edge_type = edge_type
        self.node_features = node_features
        self.edge_attr = edge_attr
        self._csr = csr
        self.path: Optional[Path] = None if path is None else Path(path)
        self.mmap = bool(mmap)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        return int(self.edge_index.shape[1])

    def csr(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Out-neighbor CSR view ``(indptr, indices, edge_ids)``.

        Built once and cached. A saved storage ships the CSR as part of
        the directory (computed by this very code path at save time), so
        opened graphs never pay the O(E log E) sort — and stay
        bit-identical to the in-memory construction.
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

    def nbytes(self) -> int:
        """Bytes across every held array (CSR included once built)."""
        total = self.edge_index.nbytes + self.node_type.nbytes + self.edge_type.nbytes
        if self.node_features is not None:
            total += self.node_features.nbytes
        if self.edge_attr is not None:
            total += self.edge_attr.nbytes
        if self._csr is not None:
            total += sum(a.nbytes for a in self._csr)
        return int(total)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, directory) -> Path:
        """Write every array (CSR included) under ``directory``.

        One ``.npy`` per array — the layout ``np.load(mmap_mode="r")``
        can map directly (``.npz`` members cannot be mapped). Arrays are
        written atomically and ``meta.json`` last, so a directory with a
        manifest is always complete. Returns the directory and records
        it as :attr:`path`, which marks this storage as path-backed for
        zero-copy worker payloads.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        indptr, indices, edge_ids = self.csr()
        arrays = {
            "edge_index": self.edge_index,
            "node_type": self.node_type,
            "edge_type": self.edge_type,
            "csr_indptr": indptr,
            "csr_indices": indices,
            "csr_edge_ids": edge_ids,
        }
        if self.node_features is not None:
            arrays["node_features"] = self.node_features
        if self.edge_attr is not None:
            arrays["edge_attr"] = self.edge_attr
        for name, arr in arrays.items():
            _write_npy(directory, name, arr)
        meta = {
            "format": "repro-graph-storage",
            "version": STORAGE_VERSION,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "has_node_features": self.node_features is not None,
            "has_edge_attr": self.edge_attr is not None,
        }
        tmp = directory / f".{_META_FILE}.tmp"
        tmp.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        os.replace(tmp, directory / _META_FILE)
        self.path = directory
        obs.count("store.graph.saves")
        return directory

    @classmethod
    def open(cls, directory, *, mmap: bool = True) -> "GraphStorage":
        """Open a directory written by :meth:`save`.

        With ``mmap=True`` (the default) every array — CSR included — is
        a read-only memmap: nothing is copied into RAM until touched,
        and pages are shared between processes mapping the same files.
        With ``mmap=False`` the arrays are fully loaded (the baseline
        the ``mmap_open`` microbenchmark compares against).
        """
        directory = Path(directory)
        meta_path = directory / _META_FILE
        if not meta_path.exists():
            raise FileNotFoundError(f"{directory} is not a graph-storage directory")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != "repro-graph-storage":
            raise ValueError(f"{directory} manifest has unknown format")
        if meta.get("version") != STORAGE_VERSION:
            raise ValueError(
                f"graph storage version {meta.get('version')} unsupported "
                f"(this build reads version {STORAGE_VERSION})"
            )
        mode = "r" if mmap else None

        def load(name: str) -> np.ndarray:
            return np.load(directory / f"{name}.npy", mmap_mode=mode)

        storage = cls(
            meta["num_nodes"],
            load("edge_index"),
            node_type=load("node_type"),
            edge_type=load("edge_type"),
            node_features=load("node_features") if meta["has_node_features"] else None,
            edge_attr=load("edge_attr") if meta["has_edge_attr"] else None,
            csr=tuple(load(name) for name in _CSR_ARRAYS),
            path=directory,
            mmap=mmap,
        )
        obs.count("store.mmap.opens" if mmap else "store.full.opens")
        return storage

    def __reduce_ex__(self, protocol):
        # An mmap-backed storage pickles as its path: workers re-open the
        # maps instead of receiving (and duplicating) the array payload.
        if self.mmap and self.path is not None:
            return (_open_mmap, (str(self.path),))
        return super().__reduce_ex__(protocol)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backing = f"mmap:{self.path}" if self.mmap else "memory"
        return (
            f"GraphStorage(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges}, backing={backing})"
        )
