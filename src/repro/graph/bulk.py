"""Batched enclosing-subgraph extraction: one multi-source sweep per batch.

:func:`extract_enclosing_subgraphs` is the vectorized counterpart of
:func:`repro.graph.subgraph.extract_enclosing_subgraph`: it processes
every link of a batch at once instead of running ~6 independent BFS
traversals and an O(E) induced-subgraph scan per link. The sweep has
three stages, each traced through :mod:`repro.obs`:

1. **extract.bfs** — one :func:`~repro.graph.traversal.multi_source_bfs`
   over the dataset's cached global CSR gives the k-hop distance row of
   every (deduplicated) batch endpoint in a single composite-frontier
   expansion.
2. **extract.induce** — node selection (union/intersection masks,
   closeness ordering, the ``max_nodes`` cap with its per-link rng
   tie-break) runs on the stacked distance rows, and the induced edge
   lists of all subgraphs are gathered straight from the global CSR:
   only arcs incident to selected nodes are touched, instead of scanning
   the full edge list once per link, and results are written in the
   packed columnar layout :class:`~repro.data.store.SubgraphStore` uses
   (flat arrays + per-link offsets) — no per-link ``Graph`` objects.
3. **extract.label** — DRNL's target-removed distances for every
   subgraph come from two multi-source BFS sweeps over the
   block-diagonal batch CSR (the same structure
   :class:`~repro.graph.batch.GraphBatch` builds). Each subgraph is its
   own connected component there, so a single flat distance array serves
   all sources at once.

The batched path is **bit-identical** to the per-link one — same node
order (including the ``max_nodes`` rng tie-break), same edge order, same
distances — which ``tests/graph/test_bulk_extraction.py`` asserts
property-style. It is the only extraction path of the SEAL data layer
(:func:`repro.data.extraction.build_packed_samples`); the per-link
function stays as the oracle and for models that work on one subgraph
at a time (:mod:`repro.models.wlnm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro import obs
from repro.graph.structure import Graph
from repro.graph.traversal import _take_ragged, multi_source_bfs
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["BulkSubgraphs", "extract_enclosing_subgraphs"]


#: Cap on the cells of any per-chunk ``(links, num_nodes)`` working
#: matrix (distance rows, membership lookups). Batches whose footprint
#: would exceed it are processed in link chunks — results are identical
#: because every per-link quantity depends only on its own pair.
_MAX_CELLS = 1 << 24


# --------------------------------------------------------------------- #
# result container
# --------------------------------------------------------------------- #


@dataclass
class BulkSubgraphs:
    """A batch of enclosing subgraphs in packed columnar layout.

    Link ``i`` owns node rows ``node_offsets[i]:node_offsets[i+1]`` and
    edge columns ``edge_offsets[i]:edge_offsets[i+1]``. Node ids in
    ``edge_index`` are subgraph-local (targets are 0 and 1, the
    :mod:`repro.graph.subgraph` convention); ``edge_ids`` maps each
    column back to its arc in the parent graph so edge types/attributes
    can be gathered without copying them here.

    ``dist_src``/``dist_dst`` are the DRNL distances of every node to its
    subgraph's targets, each computed with the *other* target blocked
    (``None`` when extraction was asked to skip labeling distances).
    """

    num_links: int
    node_map: np.ndarray  # (total_nodes,) original node id per packed row
    node_offsets: np.ndarray  # (num_links + 1,)
    edge_index: np.ndarray  # (2, total_edges) subgraph-local ids
    edge_offsets: np.ndarray  # (num_links + 1,)
    edge_ids: np.ndarray  # (total_edges,) arc ids into the parent graph
    dist_src: Optional[np.ndarray]  # (total_nodes,) int32, -1 unreachable
    dist_dst: Optional[np.ndarray]

    @property
    def total_nodes(self) -> int:
        return int(self.node_map.shape[0])

    @property
    def total_edges(self) -> int:
        return int(self.edge_ids.shape[0])


# --------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------- #


def extract_enclosing_subgraphs(
    graph: Graph,
    pairs: np.ndarray,
    *,
    k: int = 2,
    mode: str = "union",
    max_nodes: Optional[int] = None,
    rng_factory: Optional[Callable[[int], RngLike]] = None,
    with_label_distances: bool = True,
) -> BulkSubgraphs:
    """Extract the k-hop enclosing subgraphs of all ``pairs`` in one sweep.

    Parameters
    ----------
    graph: the full knowledge graph (symmetric arcs).
    pairs: ``(B, 2)`` target endpoints (negatives welcome; ``u != v``).
    k, mode, max_nodes:
        Exactly as in :func:`~repro.graph.subgraph.extract_enclosing_subgraph`.
    rng_factory:
        ``rng_factory(i)`` supplies the subsampling rng of pair ``i``
        (consumed only when its subgraph exceeds ``max_nodes``). Passing
        the same per-link streams the per-link path uses makes the two
        paths bit-identical through the cap's random tie-break.
    with_label_distances:
        Compute the fused DRNL distances (stage 3). Skippable when the
        caller does not label (e.g. ``FeatureConfig.use_drnl`` off).
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (B, 2)")
    if mode not in ("union", "intersection"):
        raise ValueError("mode must be 'union' or 'intersection'")
    if k < 1:
        raise ValueError("k must be >= 1")
    if pairs.shape[0] == 0:
        zero = np.zeros(1, dtype=np.int64)
        empty_i = np.empty(0, dtype=np.int64)
        empty_d = np.empty(0, dtype=np.int32) if with_label_distances else None
        return BulkSubgraphs(
            0, empty_i, zero, np.empty((2, 0), np.int64), zero, empty_i, empty_d, empty_d
        )
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("target endpoints must be distinct")
    if pairs.min() < 0 or pairs.max() >= graph.num_nodes:
        raise ValueError("source out of range")

    chunk = max(1, _MAX_CELLS // max(graph.num_nodes, 1))
    if pairs.shape[0] <= chunk:
        return _extract_chunk(
            graph, pairs, 0, k, mode, max_nodes, rng_factory, with_label_distances
        )
    parts = [
        _extract_chunk(
            graph, pairs[s : s + chunk], s, k, mode, max_nodes, rng_factory,
            with_label_distances,
        )
        for s in range(0, pairs.shape[0], chunk)
    ]
    return _concat_bulks(parts)


def _concat_bulks(parts: List[BulkSubgraphs]) -> BulkSubgraphs:
    """Stitch per-chunk results back into one batch-level layout."""
    node_offsets = [np.zeros(1, dtype=np.int64)]
    edge_offsets = [np.zeros(1, dtype=np.int64)]
    n_base = 0
    e_base = 0
    for p in parts:
        node_offsets.append(p.node_offsets[1:] + n_base)
        edge_offsets.append(p.edge_offsets[1:] + e_base)
        n_base += p.total_nodes
        e_base += p.total_edges
    with_dist = parts[0].dist_src is not None
    return BulkSubgraphs(
        num_links=sum(p.num_links for p in parts),
        node_map=np.concatenate([p.node_map for p in parts]),
        node_offsets=np.concatenate(node_offsets),
        edge_index=np.concatenate([p.edge_index for p in parts], axis=1),
        edge_offsets=np.concatenate(edge_offsets),
        edge_ids=np.concatenate([p.edge_ids for p in parts]),
        dist_src=np.concatenate([p.dist_src for p in parts]) if with_dist else None,
        dist_dst=np.concatenate([p.dist_dst for p in parts]) if with_dist else None,
    )


def _extract_chunk(
    graph: Graph,
    pairs: np.ndarray,
    base: int,
    k: int,
    mode: str,
    max_nodes: Optional[int],
    rng_factory: Optional[Callable[[int], RngLike]],
    with_label_distances: bool,
) -> BulkSubgraphs:
    num_links = pairs.shape[0]
    n = graph.num_nodes
    indptr, indices, csr_edge_ids = graph.csr()

    # ---- stage 1: endpoint distance rows, one composite-frontier BFS -- #
    with obs.trace("extract.bfs"):
        uniq, inv = np.unique(pairs.reshape(-1), return_inverse=True)
        dist_rows = multi_source_bfs(indptr, indices, uniq, max_depth=k)
    row_u = inv[0::2]
    row_v = inv[1::2]

    with obs.trace("extract.induce"):
        node_map, node_offsets = _select_nodes(
            pairs, dist_rows, row_u, row_v, k, mode, max_nodes, rng_factory, base
        )
        edge_index, edge_offsets, edge_ids = _induce_edges(
            graph.num_nodes, indptr, indices, csr_edge_ids,
            pairs.shape[0], node_map, node_offsets,
        )

    dist_src = dist_dst = None
    if with_label_distances:
        with obs.trace("extract.label"):
            dist_src, dist_dst = _label_distances(
                node_map.shape[0], edge_index, edge_offsets, node_offsets
            )

    obs.count("extraction.batched.links", float(num_links))
    if getattr(graph, "is_mmap", False):
        # Visibility into the zero-copy path: these sweeps read the
        # graph straight off shared mapped pages (repro.store).
        obs.count("store.mmap.extracted_links", float(num_links))
    return BulkSubgraphs(
        num_links=num_links,
        node_map=node_map,
        node_offsets=node_offsets,
        edge_index=edge_index,
        edge_offsets=edge_offsets,
        edge_ids=edge_ids,
        dist_src=dist_src,
        dist_dst=dist_dst,
    )


def _select_nodes(
    pairs: np.ndarray,
    dist_rows: np.ndarray,
    row_u: np.ndarray,
    row_v: np.ndarray,
    k: int,
    mode: str,
    max_nodes: Optional[int],
    rng_factory: Optional[Callable[[int], RngLike]],
    base: int,
):
    """Per-link node lists (targets first, closeness-then-id order, capped)."""
    num_links = pairs.shape[0]
    reach = dist_rows >= 0  # (U, N) bool
    in_u = reach[row_u]  # (B, N)
    in_v = reach[row_v]
    keep = (in_u | in_v) if mode == "union" else (in_u & in_v)
    link_ids = np.arange(num_links)
    keep[link_ids, pairs[:, 0]] = True
    keep[link_ids, pairs[:, 1]] = True

    krows, kcols = np.nonzero(keep)  # sorted by (row, col)
    not_target = (kcols != pairs[krows, 0]) & (kcols != pairs[krows, 1])
    rrows = krows[not_target]
    rcols = kcols[not_target]
    du = dist_rows[row_u[rrows], rcols].astype(np.int64)
    dv = dist_rows[row_v[rrows], rcols].astype(np.int64)
    du[du < 0] = k + 1
    dv[dv < 0] = k + 1
    closeness = du + dv
    # Per link: ascending (closeness, id) — the per-link lexsort, batched.
    order = np.lexsort((rcols, closeness, rrows))
    rrows = rrows[order]
    rcols = rcols[order]
    closeness = closeness[order]
    rest_counts = np.bincount(rrows, minlength=num_links)
    rest_offsets = np.concatenate([[0], np.cumsum(rest_counts)])

    if max_nodes is not None and (2 + rest_counts > max_nodes).any():
        budget = max(max_nodes - 2, 0)
        rest_parts: List[np.ndarray] = []
        for i in range(num_links):
            seg = slice(rest_offsets[i], rest_offsets[i + 1])
            rest = rcols[seg]
            if 2 + rest.shape[0] <= max_nodes:
                rest_parts.append(rest)
                continue
            if budget == 0:
                rest_parts.append(rest[:0])
                continue
            cls = closeness[seg]
            cutoff = cls[budget - 1]
            firm = rest[cls < cutoff]
            tied = rest[cls == cutoff]
            gen = ensure_rng(rng_factory(base + i) if rng_factory is not None else None)
            picked = gen.choice(tied, size=budget - len(firm), replace=False)
            rest_parts.append(np.concatenate([firm, np.sort(picked)]))
        rcols = (
            np.concatenate(rest_parts) if rest_parts else np.empty(0, dtype=np.int64)
        )
        rest_counts = np.fromiter(
            (p.shape[0] for p in rest_parts), dtype=np.int64, count=num_links
        )
        rest_offsets = np.concatenate([[0], np.cumsum(rest_counts)])

    n_counts = rest_counts + 2
    node_offsets = np.concatenate([[0], np.cumsum(n_counts)])
    total_n = int(node_offsets[-1])
    node_map = np.empty(total_n, dtype=np.int64)
    starts = node_offsets[:-1]
    node_map[starts] = pairs[:, 0]
    node_map[starts + 1] = pairs[:, 1]
    if rcols.size:
        rest_pos = np.repeat(starts + 2, rest_counts) + (
            np.arange(rcols.shape[0]) - np.repeat(rest_offsets[:-1], rest_counts)
        )
        node_map[rest_pos] = rcols
    return node_map, node_offsets


def _induce_edges(
    num_nodes: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    csr_edge_ids: np.ndarray,
    num_links: int,
    node_map: np.ndarray,
    node_offsets: np.ndarray,
):
    """Relabeled edge lists of every subgraph, gathered from the global CSR.

    Touches only arcs whose source node was selected (via one ragged
    gather over the CSR slots of all selected nodes) instead of masking
    the full ``(2, E)`` edge list once per link, then restores the
    original per-link arc order by sorting on arc id — the order
    ``Graph.induced_subgraph`` produces. Arcs between the two targets
    (local ``0 <-> 1``, every multiplicity) are dropped, matching the
    target-link removal of the per-link path.
    """
    n_counts = np.diff(node_offsets)
    node_rows = np.repeat(np.arange(num_links, dtype=np.int64), n_counts)
    local_ids = np.arange(node_map.shape[0], dtype=np.int64) - np.repeat(
        node_offsets[:-1], n_counts
    )
    # (link, node) -> local id, flattened; -1 = not a member of that link.
    lookup = np.full(num_links * num_nodes, -1, dtype=np.int32)
    lookup[node_rows * num_nodes + node_map] = local_ids

    starts = indptr[node_map]
    counts = indptr[node_map + 1] - starts
    arc = _take_ragged(csr_edge_ids, starts, counts)
    dst_g = _take_ragged(indices, starts, counts)
    slot_rows = np.repeat(node_rows, counts)
    src_loc = np.repeat(local_ids, counts)

    dst_loc = lookup[slot_rows * num_nodes + dst_g]
    member = dst_loc >= 0
    arc = arc[member]
    slot_rows = slot_rows[member]
    src_loc = src_loc[member]
    dst_loc = dst_loc[member].astype(np.int64)

    target = ((src_loc == 0) & (dst_loc == 1)) | ((src_loc == 1) & (dst_loc == 0))
    if target.any():
        keep = ~target
        arc = arc[keep]
        slot_rows = slot_rows[keep]
        src_loc = src_loc[keep]
        dst_loc = dst_loc[keep]

    order = np.lexsort((arc, slot_rows))
    arc = arc[order]
    slot_rows = slot_rows[order]
    edge_index = np.stack([src_loc[order], dst_loc[order]])
    e_counts = np.bincount(slot_rows, minlength=num_links)
    edge_offsets = np.concatenate([[0], np.cumsum(e_counts)])
    return edge_index, edge_offsets, arc


def _label_distances(
    total_nodes: int,
    edge_index: np.ndarray,
    edge_offsets: np.ndarray,
    node_offsets: np.ndarray,
):
    """DRNL's target-removed distances over the block-diagonal batch CSR.

    Every subgraph is a separate component of the batch graph, so one
    flat distance array serves all sources of a sweep simultaneously —
    sources can never race for a node. Two sweeps: distances to each
    link's ``src`` with its ``dst`` blocked, and vice versa.
    """
    e_counts = np.diff(edge_offsets)
    shift = np.repeat(node_offsets[:-1], e_counts)
    bsrc = edge_index[0] + shift
    bdst = edge_index[1] + shift
    order = np.argsort(bsrc, kind="stable")
    bindptr = np.zeros(total_nodes + 1, dtype=np.int64)
    np.add.at(bindptr, bsrc + 1, 1)
    np.cumsum(bindptr, out=bindptr)
    bindices = bdst[order]

    src_nodes = node_offsets[:-1]
    dst_nodes = node_offsets[:-1] + 1
    dist_src = _disjoint_bfs(bindptr, bindices, src_nodes, dst_nodes, total_nodes)
    dist_dst = _disjoint_bfs(bindptr, bindices, dst_nodes, src_nodes, total_nodes)
    return dist_src, dist_dst


def _disjoint_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    blocked: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """Multi-source BFS where sources live in pairwise-disjoint components.

    Under that precondition the per-source distance fields never overlap,
    so a single flat ``(N,)`` array holds them all — no composite keys.
    Nodes in ``blocked`` are never entered (their distance stays ``-1``).
    """
    dist = np.full(num_nodes, -1, dtype=np.int32)
    is_blocked = np.zeros(num_nodes, dtype=bool)
    is_blocked[blocked] = True
    dist[sources] = 0
    frontier = np.asarray(sources, dtype=np.int64)
    depth = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nxt = _take_ragged(indices, starts, counts)
        nxt = nxt[~(is_blocked[nxt] | (dist[nxt] >= 0))]
        if nxt.size == 0:
            break
        depth += 1
        # Scatter-then-scan dedupe (idempotent writes, then one linear
        # pass) — cheaper than hashing when frontiers rival ``num_nodes``.
        dist[nxt] = depth
        frontier = np.flatnonzero(dist == depth)
    return dist
