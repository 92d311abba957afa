"""Batched enclosing-subgraph extraction: one multi-source sweep per batch.

For a target pair ``(a, b)`` the enclosing subgraph is built from the
k-hop neighborhoods of both endpoints combined with either a **union**
(the original SEAL recipe) or an **intersection** (the paper's choice
for PrimeKG, §III-A, which keeps only nodes on short a↔b paths and
shrinks dense biomedical neighborhoods). The target link itself is
removed — keeping it would leak the label the model is asked to
classify.

:func:`extract_enclosing_subgraphs` is the only extractor of the
library: it processes every link of a batch at once instead of running
~6 independent BFS traversals and an O(E) induced-subgraph scan per
link. The sweep has three stages, each traced through :mod:`repro.obs`:

1. **extract.bfs** — one :func:`~repro.graph.traversal.multi_source_bfs`
   over the dataset's cached global CSR gives every (deduplicated) batch
   endpoint's k-hop ball as sorted ``(endpoint, node)`` keys with their
   depths, from a single composite-frontier expansion.
2. **extract.induce** — node selection (union/intersection, closeness
   ordering, the ``max_nodes`` cap with its per-link rng tie-break) runs
   on sorted ``link * N + node`` keys sliced from those balls, and the
   induced edge lists of all subgraphs are gathered straight from the
   global CSR: only arcs incident to selected nodes are touched, instead
   of scanning the full edge list once per link, and results are written
   in the packed columnar layout :class:`~repro.data.store.SubgraphStore`
   uses (flat arrays + per-link offsets) — no per-link ``Graph`` objects.
3. **extract.label** — DRNL's target-removed distances for every
   subgraph come from two multi-source BFS sweeps over the
   block-diagonal batch CSR (the same structure
   :class:`~repro.graph.batch.GraphBatch` builds). Each subgraph is its
   own connected component there, so a single flat distance array serves
   all sources at once.

Every array these stages build is sized by the keys the frontier
touches (the reached ``(endpoint, node)`` pairs of stage 1), by the
selected nodes and their arcs, or by the subgraphs returned — never by
``links * N``. Edge induction adds one ``N``-wide map from selected node
to compact id and a local-id lookup table of at most ``_LOOKUP_CELLS``
cells, filled one slice of links at a time. Memory therefore grows
linearly with the batch, and a batch of any size runs as one sweep.

The batched path is **bit-identical** to straightforward per-link
extraction (``tests/oracles.py``) — same node order (including the
``max_nodes`` rng tie-break), same edge order, same distances — which
``tests/graph/test_bulk_extraction.py`` asserts property-style. Its
callers are the SEAL data layer
(:func:`repro.data.extraction.build_packed_samples`) and WLNM
(:mod:`repro.models.wlnm`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.graph.structure import Graph
from repro.graph.traversal import _check_key_space, _take_ragged, multi_source_bfs
from repro.utils.arrays import sorted_unique
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["BulkSubgraphs", "extract_enclosing_subgraphs"]

# Cells of edge induction's (links, selected nodes) local-id table held at
# once (4 MiB of int32); larger batches fill it one slice of links at a time.
_LOOKUP_CELLS = 1 << 20


# --------------------------------------------------------------------- #
# result container
# --------------------------------------------------------------------- #


@dataclass
class BulkSubgraphs:
    """A batch of enclosing subgraphs in packed columnar layout.

    Link ``i`` owns node rows ``node_offsets[i]:node_offsets[i+1]`` and
    edge columns ``edge_offsets[i]:edge_offsets[i+1]``. Node ids in
    ``edge_index`` are subgraph-local (targets are 0 and 1, the rest
    ordered by closeness to the targets, then by id); ``edge_ids`` maps each
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
    k: neighborhood radius (paper uses k=2).
    mode:
        ``"union"`` keeps nodes within ``k`` hops of either endpoint;
        ``"intersection"`` keeps nodes within ``k`` hops of *both*
        (plus the endpoints themselves), per paper §III-A.
    max_nodes:
        Optional cap on subgraph size. When exceeded, non-target nodes
        are kept shell by shell in closeness order and the cut shell is
        subsampled uniformly — the budget guard the paper's "subgraphs
        too big to process" remark motivates.
    rng_factory:
        ``rng_factory(i)`` supplies the subsampling rng of pair ``i``
        (consumed only when its subgraph exceeds ``max_nodes``). Keying
        it on the link, not on a shared generator, makes a link's
        subgraph independent of the batch it rides in.
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

    num_links = pairs.shape[0]
    indptr, indices, csr_edge_ids = graph.csr()
    # Composite keys: stage 2 orders nodes by link·(2k+3)·N + ..., and
    # stage 3 orders arcs by link·E + arc.
    _check_key_space(num_links, 2 * k + 3, graph.num_nodes)
    _check_key_space(num_links, indices.shape[0])

    # ---- stage 1: reached (endpoint, node, depth), one frontier sweep -- #
    with obs.trace("extract.bfs"):
        uniq, inv = np.unique(pairs.reshape(-1), return_inverse=True)
        reached = multi_source_bfs(indptr, indices, uniq, max_depth=k)

    with obs.trace("extract.induce"):
        node_map, node_offsets = _select_nodes(
            graph.num_nodes, pairs, reached, inv[0::2], inv[1::2], k, mode,
            max_nodes, rng_factory,
        )
        edge_index, edge_offsets, edge_ids = _induce_edges(
            graph.num_nodes, indptr, indices, csr_edge_ids,
            num_links, node_map, node_offsets,
        )

    dist_src = dist_dst = None
    if with_label_distances:
        with obs.trace("extract.label"):
            dist_src, dist_dst = _label_distances(
                node_map.shape[0], edge_index, edge_offsets, node_offsets
            )

    obs.count("extraction.batched.links", float(num_links))
    if graph.is_mmap:
        # Visibility into the zero-copy path: these sweeps read the
        # graph straight off shared mapped pages (Graph.open).
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


def _link_keys(row_nodes, row_depth, row_ptr, rows, n):
    """Per-link ``link * N + node`` keys (sorted) and depths of ``rows``."""
    starts = row_ptr[rows]
    counts = row_ptr[rows + 1] - starts
    links = np.repeat(np.arange(rows.shape[0], dtype=np.int64) * n, counts)
    keys = links + _take_ragged(row_nodes, starts, counts)
    return keys, _take_ragged(row_depth, starts, counts)


def _lookup_depth(keys, depth, queries, missing):
    """``depth`` at each of ``queries`` in the sorted ``keys``; ``missing`` if absent."""
    pos = np.minimum(np.searchsorted(keys, queries), keys.shape[0] - 1)
    return np.where(keys[pos] == queries, depth[pos].astype(np.int64), missing)


def _select_nodes(
    num_nodes: int,
    pairs: np.ndarray,
    reached: Tuple[np.ndarray, np.ndarray],
    row_u: np.ndarray,
    row_v: np.ndarray,
    k: int,
    mode: str,
    max_nodes: Optional[int],
    rng_factory: Optional[Callable[[int], RngLike]],
):
    """Per-link node lists (targets first, closeness-then-id order, capped).

    Every set operation runs on sorted ``link * N + node`` keys: each
    endpoint's reached row is sliced into its links' key lists, which are
    merged by one sort (union: neighbour mask; intersection: keys that
    occur twice), so nothing is sized by ``links * N``.
    """
    num_links = pairs.shape[0]
    n = np.int64(num_nodes)
    keys, depth = reached
    num_rows = int(max(row_u.max(), row_v.max())) + 1
    row_ptr = np.searchsorted(keys, np.arange(num_rows + 1, dtype=np.int64) * n)
    row_nodes = keys % n
    ku, du_all = _link_keys(row_nodes, depth, row_ptr, row_u, n)
    kv, dv_all = _link_keys(row_nodes, depth, row_ptr, row_v, n)

    both = np.sort(np.concatenate([ku, kv]))
    twice = both[1:] == both[:-1]
    if mode == "union":
        first = np.ones(both.shape[0], dtype=bool)
        first[1:] = ~twice
        sel = both[first]
    else:
        sel = both[1:][twice]
    rrows = sel // n
    rcols = sel - rrows * n
    not_target = (rcols != pairs[rrows, 0]) & (rcols != pairs[rrows, 1])
    sel = sel[not_target]
    rrows = rrows[not_target]
    rcols = rcols[not_target]
    closeness = _lookup_depth(ku, du_all, sel, k + 1) + _lookup_depth(
        kv, dv_all, sel, k + 1
    )
    # Per link: ascending (closeness, id), as one sort of a unique key.
    width = np.int64(2 * k + 3)
    order_key = np.sort((rrows * width + closeness) * n + rcols)
    rcols = order_key % n
    link_cls = order_key // n
    rrows = link_cls // width
    closeness = link_cls - rrows * width
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
            gen = ensure_rng(rng_factory(i) if rng_factory is not None else None)
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
    ``Graph.induced_subgraph`` produces. Membership goes through an
    ``N``-wide map from each selected node to a compact id and a
    ``(links, selected)`` local-id table that is filled for one slice of
    links at a time, so it never holds more than ``_LOOKUP_CELLS`` cells
    (or one row): memory grows with the selected nodes and their arcs,
    not with ``links * selected``. Arcs between the two targets (local
    ``0 <-> 1``, every multiplicity) are dropped: the link being
    classified must not be visible in its own subgraph.
    """
    n_counts = np.diff(node_offsets)
    node_rows = np.repeat(np.arange(num_links, dtype=np.int64), n_counts)
    local_ids = np.arange(node_map.shape[0], dtype=np.int64) - np.repeat(
        node_offsets[:-1], n_counts
    )
    selected = sorted_unique(node_map)
    compact = np.full(num_nodes, -1, dtype=np.int32)
    compact[selected] = np.arange(selected.shape[0])
    member_c = compact[node_map]

    starts = indptr[node_map]
    counts = indptr[node_map + 1] - starts
    arc = _take_ragged(csr_edge_ids, starts, counts)
    dst_c = compact[_take_ragged(indices, starts, counts)]
    selected_dst = dst_c >= 0
    arc = arc[selected_dst]
    dst_c = dst_c[selected_dst]
    slot_rows = np.repeat(node_rows, counts)[selected_dst]
    src_loc = np.repeat(local_ids, counts)[selected_dst]

    # (link - lo, compact id) -> local id; -1 = not a member of that link.
    # Node rows and slot rows both ascend, so a slice of links owns one
    # contiguous range of each; its entries are reset after the lookup.
    per_slice = max(1, _LOOKUP_CELLS // selected.shape[0])
    table = np.full((min(num_links, per_slice), selected.shape[0]), -1, dtype=np.int32)
    cuts = np.minimum(np.arange(0, num_links + per_slice, per_slice), num_links)
    node_cuts = node_offsets[cuts]
    slot_cuts = np.searchsorted(slot_rows, cuts)
    dst_loc = np.empty(slot_rows.shape[0], dtype=np.int32)
    for i in range(cuts.shape[0] - 1):
        lo = cuts[i]
        nodes = slice(node_cuts[i], node_cuts[i + 1])
        slots = slice(slot_cuts[i], slot_cuts[i + 1])
        rows, cols = node_rows[nodes] - lo, member_c[nodes]
        table[rows, cols] = local_ids[nodes]
        dst_loc[slots] = table[slot_rows[slots] - lo, dst_c[slots]]
        table[rows, cols] = -1

    member = (dst_loc >= 0) & ~(
        ((src_loc == 0) & (dst_loc == 1)) | ((src_loc == 1) & (dst_loc == 0))
    )
    arc = arc[member]
    slot_rows = slot_rows[member]
    order = np.argsort(slot_rows * np.int64(indices.shape[0]) + arc)
    src_loc = src_loc[member][order]
    dst_loc = dst_loc[member][order].astype(np.int64)
    edge_index = np.stack([src_loc, dst_loc])
    e_counts = np.bincount(slot_rows, minlength=num_links)
    edge_offsets = np.concatenate([[0], np.cumsum(e_counts)])
    return edge_index, edge_offsets, arc[order]


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
