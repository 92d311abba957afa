"""BFS traversal primitives: bounded shortest distances and k-hop sets.

These are the hot inner loops of SEAL's subgraph extraction (one BFS per
target node per link), so they run on the cached CSR arrays with
frontier-at-a-time vectorization: each BFS level is expanded with one
ragged gather over ``indptr``/``indices`` instead of per-node Python
work. :func:`multi_source_bfs` generalizes the sweep to many sources at
once through a composite ``(source, node)`` frontier — the primitive the
batched extraction engine (:mod:`repro.graph.bulk`) amortizes a whole
batch's endpoint BFS runs with.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.structure import Graph

__all__ = [
    "bfs_distances",
    "k_hop_nodes",
    "k_hop_union",
    "pairwise_distance",
    "multi_source_bfs",
]


def _take_ragged(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + counts[i]]`` runs.

    A single ``np.repeat`` of the per-run base offsets (``starts`` minus
    the exclusive cumsum of ``counts``) added to one ``np.arange`` — the
    previous spelling repeated ``starts`` and the cumsum separately, an
    extra O(total) temporary and subtraction per BFS level (a
    boundary-scatter cumsum variant was also tried and loses to both at
    every frontier size).
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    shift = np.cumsum(counts) - counts
    return values[np.arange(total) + np.repeat(starts - shift, counts)]


def _expand_frontier(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """All out-neighbors of ``frontier`` (with duplicates)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    return _take_ragged(indices, starts, counts)


def bfs_distances(
    graph: Graph,
    source: int,
    max_depth: Optional[int] = None,
    *,
    blocked_edge: Optional[tuple] = None,
    blocked_node: Optional[int] = None,
) -> np.ndarray:
    """Unweighted shortest distances from ``source`` to every node.

    Unreachable nodes (or nodes beyond ``max_depth``) get ``-1``.

    Parameters
    ----------
    graph: the graph (directed arcs; symmetric graphs behave undirected).
    source: start node.
    max_depth: stop expanding beyond this many hops when given.
    blocked_edge:
        Optional ``(u, v)`` pair treated as non-existent in *both*
        directions — used by SEAL's DRNL, which computes distances in the
        subgraph with the target link removed.
    blocked_node:
        Optional node treated as having no arcs at all (never entered,
        never expanded; its distance stays ``-1``). Equivalent to — but
        much cheaper than — BFS over a copy of the graph with every arc
        touching the node dropped, which is what DRNL's
        "distance with the other target removed" used to allocate.
    """
    if not 0 <= source < graph.num_nodes:
        raise ValueError("source out of range")
    if blocked_node is not None and blocked_node == source:
        raise ValueError("cannot block the BFS source")
    indptr, indices, _ = graph.csr()
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        nxt = _expand_frontier(indptr, indices, frontier)
        if blocked_edge is not None:
            u, v = blocked_edge
            # Drop traversals along the blocked pair in either direction.
            src_rep = np.repeat(frontier, indptr[frontier + 1] - indptr[frontier])
            keep = ~(((src_rep == u) & (nxt == v)) | ((src_rep == v) & (nxt == u)))
            nxt = nxt[keep]
        if blocked_node is not None:
            nxt = nxt[nxt != blocked_node]
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            break
        nxt = np.unique(nxt)
        depth += 1
        dist[nxt] = depth
        frontier = nxt
    return dist


def multi_source_bfs(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    *,
    max_depth: Optional[int] = None,
    blocked: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row-per-source BFS distances in one frontier sweep.

    Returns an ``(S, N)`` int32 matrix where row ``i`` equals
    ``bfs_distances(graph, sources[i], max_depth)`` (``-1`` =
    unreachable). All sources advance level-by-level together on a
    composite ``(source, node)`` frontier expanded with the same ragged
    gather single-source BFS uses, so a batch of ``S`` BFS runs costs one
    sweep of vectorized NumPy instead of ``S`` Python loops.

    Parameters
    ----------
    indptr, indices: the CSR adjacency (``Graph.csr()``'s first two arrays).
    sources: ``(S,)`` start nodes (duplicates allowed; each gets a row).
    max_depth: stop expanding beyond this many hops when given.
    blocked:
        Optional ``(S,)`` per-row blocked node: row ``i`` never enters
        ``blocked[i]`` (the DRNL "other target removed" semantics of
        ``bfs_distances(..., blocked_node=...)``).
    """
    num_nodes = int(indptr.shape[0]) - 1
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise ValueError("sources must be one-dimensional")
    n_src = sources.shape[0]
    dist = np.full((n_src, num_nodes), -1, dtype=np.int32)
    if n_src == 0:
        return dist
    if sources.min() < 0 or sources.max() >= num_nodes:
        raise ValueError("source out of range")
    if blocked is not None:
        blocked = np.asarray(blocked, dtype=np.int64)
        if blocked.shape != sources.shape:
            raise ValueError("blocked must have one node per source")
        if (blocked == sources).any():
            raise ValueError("cannot block the BFS source")
    flat = dist.reshape(-1)
    rows = np.arange(n_src, dtype=np.int64)
    flat[rows * num_nodes + sources] = 0
    f_rows, f_nodes = rows, sources
    depth = 0
    while f_nodes.size and (max_depth is None or depth < max_depth):
        starts = indptr[f_nodes]
        counts = indptr[f_nodes + 1] - starts
        nxt_nodes = _take_ragged(indices, starts, counts)
        nxt_rows = np.repeat(f_rows, counts)
        if blocked is not None:
            keep = nxt_nodes != blocked[nxt_rows]
            nxt_nodes = nxt_nodes[keep]
            nxt_rows = nxt_rows[keep]
        keys = nxt_rows * num_nodes + nxt_nodes
        keys = keys[flat[keys] < 0]
        if keys.size == 0:
            break
        depth += 1
        # Dedupe by scatter-then-scan instead of hashing the key array:
        # duplicate writes of the same depth are idempotent, and scanning
        # for ``== depth`` recovers a sorted, unique frontier. The scan is
        # O(S*N) but branch-free; hashing large frontiers costs more.
        if keys.size * 8 >= flat.size:
            flat[keys] = depth
            keys = np.flatnonzero(flat == depth)
        else:
            keys = np.unique(keys)
            flat[keys] = depth
        f_rows = keys // num_nodes
        f_nodes = keys - f_rows * num_nodes
    return dist


def k_hop_nodes(graph: Graph, source: int, k: int) -> np.ndarray:
    """Sorted array of nodes within ``k`` hops of ``source`` (inclusive)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    dist = bfs_distances(graph, source, max_depth=k)
    return np.nonzero(dist >= 0)[0]


def k_hop_union(graph: Graph, sources: np.ndarray, k: int) -> np.ndarray:
    """Sorted array of nodes within ``k`` hops of *any* source (inclusive).

    The halo primitive of the graph partitioner: one boolean-visited
    frontier sweep over the CSR covers every source at once, so the cost
    is O(edges touched) regardless of how many sources there are —
    unlike ``S`` separate :func:`k_hop_nodes` calls or a
    :func:`multi_source_bfs` row matrix (which is O(S·N) memory).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        return sources
    if sources[0] < 0 or sources[-1] >= graph.num_nodes:
        raise ValueError("source out of range")
    indptr, indices, _ = graph.csr()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    visited[sources] = True
    frontier = sources
    for _ in range(k):
        if frontier.size == 0:
            break
        nxt = _expand_frontier(indptr, indices, frontier)
        nxt = nxt[~visited[nxt]]
        if nxt.size == 0:
            break
        nxt = np.unique(nxt)
        visited[nxt] = True
        frontier = nxt
    return np.flatnonzero(visited)


def pairwise_distance(graph: Graph, u: int, v: int, max_depth: Optional[int] = None) -> int:
    """Shortest-path hop count between ``u`` and ``v`` (-1 if unreachable)."""
    return int(bfs_distances(graph, u, max_depth=max_depth)[v])
