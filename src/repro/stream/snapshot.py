"""Incremental graph maintenance with epoch-versioned CSR snapshots.

:class:`StreamingGraph`'s state *is* the current snapshot's arrays: the
storage ``edge_index`` / ``edge_type`` / ``edge_attr`` and the CSR
triple ``(indptr, indices, edge_ids)``. Version 0 aliases the base
graph's. Each :meth:`~StreamingGraph.apply` rebuilds every array with
one vectorized splice: storage drops the removed arcs and appends the
new ones; the CSR drops the removed slots and inserts each new arc at
the end of its source row, stably; ``edge_ids`` shift down past the
removed ids and ``indptr`` adds each row's count change. That is
byte-for-byte the CSR a stable argsort of the new storage builds, so
``snapshot()`` is O(1): it wraps the read-only arrays, CSR included, in
a :class:`~repro.graph.Graph` without revalidating them
(:meth:`Graph.trusted <repro.graph.Graph.trusted>`), and a snapshot
handed out never changes under its holder.

Keeping the storage in insertion order is load-bearing for serving:
surviving arcs keep the relative order of their arc *ids*. Subgraph
extraction orders a subgraph's edges by arc id, so a pair whose
neighborhood the delta did not touch extracts — and scores —
bit-identically on consecutive snapshots, which is what lets
``repro.serve``'s delta-aware invalidation keep survivors' cached
results.

Every snapshot carries a :class:`GraphDelta` — the exact added/removed
undirected pairs since the previous snapshot — which is what
``repro.serve`` consumes for delta-aware cache invalidation. Each
snapshot is a full citizen of the saved-graph format:
``Graph.save()``/``Graph.open(mmap=True)`` work unchanged, so old epochs
stay zero-copy readable while the stream moves on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, NamedTuple, Optional

import numpy as np

from repro import obs
from repro.graph.structure import Graph, is_saved_graph
from repro.stream.events import EventBatch
from repro.utils.arrays import sorted_unique

__all__ = ["GraphDelta", "Snapshot", "StreamingGraph"]


@dataclass(frozen=True)
class GraphDelta:
    """What changed between two snapshot versions.

    ``added`` / ``removed`` are ``(K, 2)`` undirected node pairs (one
    row per edge event that took effect). ``touched_nodes`` — the
    deduped union of their endpoints — is the seed set delta-aware
    invalidation grows k-hop neighborhoods from.
    """

    from_version: int
    to_version: int
    added: np.ndarray
    removed: np.ndarray

    @property
    def touched_nodes(self) -> np.ndarray:
        """Sorted unique endpoints of every added/removed edge."""
        parts = [self.added.ravel(), self.removed.ravel()]
        return sorted_unique(np.concatenate(parts)).astype(np.int64)

    def merge(self, other: "GraphDelta") -> "GraphDelta":
        """Compose with the delta that follows this one.

        Conservative union: an edge added then removed inside the merged
        span appears in both lists, which only ever widens the retired
        set downstream — never misses an affected pair.
        """
        if other.from_version != self.to_version:
            raise ValueError(
                f"cannot merge delta ending at v{self.to_version} with one "
                f"starting at v{other.from_version}"
            )
        return GraphDelta(
            from_version=self.from_version,
            to_version=other.to_version,
            added=np.concatenate([self.added, other.added]),
            removed=np.concatenate([self.removed, other.removed]),
        )


class Snapshot(NamedTuple):
    """One epoch-versioned frozen view of the streaming graph."""

    version: int
    graph: Graph
    delta: GraphDelta
    path: Optional[Path] = None


def _frozen(a: np.ndarray) -> np.ndarray:
    """Read-only view of ``a``: every snapshot shares the state arrays."""
    view = a.view()
    view.flags.writeable = False
    return view


def _splice(
    a: np.ndarray, drop: np.ndarray, at: np.ndarray, new: np.ndarray, axis: int = 0
) -> np.ndarray:
    """Copy of ``a`` without the entries at ``drop``, with ``new`` inserted.

    ``drop`` is sorted and unique. ``at`` is sorted, one position per
    entry of ``new``: each goes in before ``a``'s entry at that position
    (equal positions keep ``new``'s order). ``a`` is cut at every edit
    point and the pieces re-joined with the insertions between them, so
    each byte is copied once — a boolean mask along axis 0 of a 2-D
    array costs ~10x that.
    """
    at, runs = np.unique(at, return_counts=True)
    if at.size + drop.size == 0:
        return a
    pos = np.concatenate([at, drop])
    order = np.argsort(pos, kind="stable")  # insertions first on ties
    skip = (np.arange(pos.size) >= at.size)[order]
    width = np.concatenate([runs, np.zeros(drop.size, np.int64)])[order]
    pos = pos[order]
    pieces = np.split(a, np.stack([pos, pos + skip], axis=1).ravel(), axis=axis)
    pieces[1::2] = np.split(new, np.cumsum(width)[:-1], axis=axis)
    return np.concatenate(pieces, axis=axis)


class StreamingGraph:
    """Mutable graph accepting event batches, emitting frozen snapshots.

    Parameters
    ----------
    base: the version-0 graph (any :class:`repro.graph.Graph`).
    snapshot_dir: when given, each snapshot is also persisted with
        ``Graph.save`` under ``snapshot_dir/snapshot_NNNNNN`` so old
        epochs remain mmap-openable after the process exits.

    The version-0 snapshot is ``base`` itself; later snapshots keep its
    insertion order, with new arcs appended at the end.
    """

    def __init__(self, base: Graph, *, snapshot_dir=None):
        self._base = base
        self.num_nodes = base.num_nodes
        self._node_type = base.node_type
        self._node_features = base.node_features
        # The state is the current snapshot's arrays; version 0 aliases
        # the base graph's.
        self._edge_index = _frozen(base.edge_index)
        self._edge_type = _frozen(base.edge_type)
        self._edge_attr = None if base.edge_attr is None else _frozen(base.edge_attr)
        self._csr = tuple(_frozen(a) for a in base.csr())
        self.snapshot_dir = None if snapshot_dir is None else Path(snapshot_dir)
        self._version = 0
        self._dirty = False
        self._pending_added: List[np.ndarray] = []
        self._pending_removed: List[np.ndarray] = []
        self._cached: Optional[Snapshot] = None

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def version(self) -> int:
        """Snapshot epoch of the current state (0 = the base graph)."""
        return self._version

    @property
    def live_edges(self) -> int:
        """Undirected live edge count."""
        return self._edge_type.size // 2

    @property
    def tombstones(self) -> int:
        """Always 0: a removal is physical in the very next snapshot."""
        return 0

    def stats(self) -> dict:
        return {
            "version": self._version,
            "num_nodes": self.num_nodes,
            "live_edges": self.live_edges,
            "tombstone_arcs": 0,
            "table_arcs": int(self._edge_type.size),
        }

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def apply(self, events: EventBatch) -> None:
        """Apply one event batch (all adds, then all invalidations).

        Within a batch, adds land before invalidations so a batch that
        publishes and retracts the same edge nets out to no edge.
        Invalidations that match no live edge in both directions are
        counted (``stream.events.unmatched_invalidate``) and skipped —
        they change nothing and contribute nothing to the delta.
        """
        if len(events) == 0:
            return
        pairs = np.asarray(events.pairs, dtype=np.int64)
        if pairs.size and (pairs.min() < 0 or pairs.max() >= self.num_nodes):
            raise ValueError("event pairs reference nodes outside the graph")
        add = events.added_mask
        new = self._new_arcs(events, pairs, add)
        inv = ~add
        dead_ids, dead_slots, dead_src, matched = self._match(pairs[inv], new[0], new[1])
        self._rebuild(*new, dead_ids, dead_slots, dead_src)
        self._pending_added.append(pairs[add])
        self._pending_removed.append(pairs[inv][matched])
        unmatched = np.count_nonzero(~matched)
        if unmatched:
            obs.count("stream.events.unmatched_invalidate", float(unmatched))
        self._dirty = True
        self._cached = None
        obs.count("stream.events.add", float(np.count_nonzero(add)))
        obs.count("stream.events.invalidate", float(np.count_nonzero(inv)))
        obs.gauge("stream.edges.live", float(self.live_edges))

    def _new_arcs(self, events: EventBatch, pairs: np.ndarray, add: np.ndarray):
        """``(src, dst, type, attr)`` of the arcs the batch's adds create.

        Both arc directions, interleaved like ``Graph.from_undirected``
        (arc ``2i`` is ``u->v``, arc ``2i+1`` is ``v->u``).
        """
        u, v = pairs[add, 0], pairs[add, 1]
        src = np.stack([u, v], axis=1).ravel()
        dst = np.stack([v, u], axis=1).ravel()
        etype = np.repeat(events.edge_type[add], 2)
        if self._edge_attr is None:
            return src, dst, etype, None
        width = self._edge_attr.shape[1]
        attr = np.empty((0, width), dtype=self._edge_attr.dtype)
        if u.size:
            if events.edge_attr is None:
                raise ValueError("graph carries edge_attr but events have none")
            attr = np.asarray(events.edge_attr[add], dtype=attr.dtype)
            if attr.shape[1] != width:
                raise ValueError(f"event edge_attr width {attr.shape[1]} != graph's {width}")
        return src, dst, etype, np.repeat(attr, 2, axis=0)

    def _match(self, pairs: np.ndarray, new_src: np.ndarray, new_dst: np.ndarray):
        """Which arcs the invalidations ``pairs`` kill, and which match.

        Applied one by one, an invalidation of ``{u, v}`` kills the first
        live ``u->v`` and ``v->u`` arcs by id (new arcs, ids ``E + j``,
        last) — or nothing when either is missing. So the ``k``-th
        invalidation of a pair matches iff both directions hold ``k``
        arcs (a self-loop ``2k``), and ``m`` matches kill each
        direction's first ``m``. Returns the killed arcs' sorted ids,
        the killed old arcs' sorted CSR slots, the killed arcs' sources
        and a per-invalidation matched mask.
        """
        n = np.int64(self.num_nodes)
        indptr, indices, edge_ids = self._csr
        # Candidates: every old arc out of an endpoint, plus the new arcs.
        rows = sorted_unique(pairs)
        lo = indptr[rows]
        width = indptr[rows + 1] - lo
        slots = np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)
        src = np.concatenate([np.repeat(rows, width), new_src])
        dst = np.concatenate([indices[slots], new_dst])
        ids = np.concatenate([edge_ids[slots], self._edge_type.size + np.arange(new_src.size)])
        slots = np.concatenate([slots, np.full(new_src.size, -1)])
        # Rank each direction's arcs of every invalidated pair by id.
        key = np.minimum(src, dst) * n + np.maximum(src, dst)
        want = pairs.min(axis=1) * n + pairs.max(axis=1)
        groups, group_of, asked = np.unique(want, return_inverse=True, return_counts=True)
        cand = np.flatnonzero(np.isin(key, groups))
        directed = 2 * key[cand] + (src[cand] > dst[cand])
        order = np.lexsort((ids[cand], directed))
        cand, directed = cand[order], directed[order]
        rank = np.arange(cand.size) - np.searchsorted(directed, directed)
        # Pair g's arcs are keyed 2g (u < v way) then 2g + 1 (u > v way).
        fwd, bwd = np.diff(np.searchsorted(directed, 2 * groups[:, None] + [0, 1, 2]), axis=1).T
        loop = groups // n == groups % n
        done = np.minimum(asked, np.where(loop, fwd // 2, np.minimum(fwd, bwd)))
        dead = cand[rank < np.where(loop, 2 * done, done)[np.searchsorted(groups, key[cand])]]
        # The first `done` invalidations of each pair, in event order, matched.
        by_group = np.argsort(group_of, kind="stable")
        sorted_groups = group_of[by_group]
        nth = np.empty(len(pairs), dtype=np.int64)
        nth[by_group] = np.arange(len(pairs)) - np.searchsorted(sorted_groups, sorted_groups)
        dead_slots = slots[dead]
        return (
            np.sort(ids[dead]),
            np.sort(dead_slots[dead_slots >= 0]),
            src[dead],
            nth < done[group_of],
        )

    def _rebuild(self, src, dst, etype, attr, dead_ids, dead_slots, dead_src) -> None:
        """Rebuild every state array once: drop the dead arcs, add the new.

        New arcs get pre-removal ids ``E + j``. Storage appends the
        surviving ones; the CSR inserts each at the end of its source
        row, stably. Then every CSR edge id shifts down by the number of
        dead ids below it — new arcs included — and ``indptr`` adds each
        row's count change.
        """
        e = self._edge_type.size
        keep = np.ones(src.size, dtype=bool)
        keep[dead_ids[dead_ids >= e] - e] = False
        old_dead = dead_ids[dead_ids < e]
        if old_dead.size == 0 and not keep.any():
            return  # nothing, or only arcs added and retracted in this batch
        tail = np.full(np.count_nonzero(keep), e)
        self._edge_index = _frozen(
            _splice(self._edge_index, old_dead, tail, np.stack([src, dst])[:, keep], axis=1)
        )
        self._edge_type = _frozen(_splice(self._edge_type, old_dead, tail, etype[keep]))
        if self._edge_attr is not None:
            self._edge_attr = _frozen(_splice(self._edge_attr, old_dead, tail, attr[keep]))

        indptr, indices, edge_ids = self._csr
        new_ids = e + np.flatnonzero(keep)
        by_row = np.argsort(src[keep], kind="stable")
        at = indptr[src[keep][by_row] + 1]
        indices = _splice(indices, dead_slots, at, dst[keep][by_row])
        edge_ids = _splice(edge_ids, dead_slots, at, new_ids[by_row])
        if dead_ids.size:  # shift[i] = number of dead ids below i: one run per gap
            gaps = np.diff(dead_ids, prepend=-1, append=e + src.size - 1)
            runs = np.arange(dead_ids.size + 1, dtype=np.min_scalar_type(dead_ids.size))
            edge_ids -= np.take(np.repeat(runs, gaps), edge_ids)
        n = self.num_nodes
        change = np.bincount(src, minlength=n) - np.bincount(dead_src, minlength=n)
        indptr = indptr + np.concatenate([[0], np.cumsum(change)])
        self._csr = (_frozen(indptr), _frozen(indices), _frozen(edge_ids))

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Snapshot:
        """Freeze the current state into an epoch-versioned ``Graph``.

        O(1): the snapshot wraps the state arrays without copying them.
        Bumps the version only when events were applied since the last
        snapshot; with nothing pending the previous snapshot is returned
        as is (same ``Snapshot`` object), so repeated snapshotting of a
        quiet stream is free.
        """
        if self._cached is not None and not self._dirty:
            return self._cached
        from_version = self._version
        if self._dirty:
            self._version += 1
        if self._version == 0:
            # An untouched stream's snapshot is the base graph *object*:
            # same storage order and arc ids, so downstream extraction
            # (which orders subgraph edges by arc id) is bit-for-bit the
            # offline path, not merely CSR-equivalent.
            graph = self._base
        else:
            graph = Graph.trusted(
                self.num_nodes, self._edge_index, node_type=self._node_type,
                edge_type=self._edge_type, node_features=self._node_features,
                edge_attr=self._edge_attr, csr=self._csr,
            )
        none = np.empty((0, 2), dtype=np.int64)
        delta = GraphDelta(
            from_version=from_version,
            to_version=self._version,
            added=np.concatenate([none, *self._pending_added]),
            removed=np.concatenate([none, *self._pending_removed]),
        )
        path = None
        if self.snapshot_dir is not None:
            path = self.snapshot_dir / f"snapshot_{self._version:06d}"
            if not is_saved_graph(path):
                graph.save(path)
            graph = Graph.open(path, mmap=True)
        snap = Snapshot(version=self._version, graph=graph, delta=delta, path=path)
        self._pending_added = []
        self._pending_removed = []
        self._dirty = False
        self._cached = snap
        obs.count("stream.snapshots")
        return snap
