"""BFS traversal primitives: bounded shortest distances and k-hop sets.

They run on the cached CSR arrays with frontier-at-a-time vectorization:
each BFS level is expanded with one ragged gather over
``indptr``/``indices`` instead of per-node Python work.
:func:`multi_source_bfs` runs the sweep for many sources at once through
a composite ``(source, node)`` frontier — the primitive the batched
extraction engine (:mod:`repro.graph.bulk`) amortizes a whole batch's
endpoint BFS runs with. It keeps only the keys the frontier reaches,
sorted, so its cost follows the balls it explores rather than
``sources * N``.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.graph.structure import Graph
from repro.utils.arrays import sorted_unique

__all__ = [
    "bfs_distances",
    "k_hop_union",
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


def _check_key_space(*factors: int) -> None:
    """Raise unless composite keys below ``prod(factors)`` fit in int64."""
    if math.prod(int(f) for f in factors) > np.iinfo(np.int64).max:
        raise ValueError("batch too large for int64 composite keys")


def _expand_frontier(indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """All out-neighbors of ``frontier`` (with duplicates)."""
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    return _take_ragged(indices, starts, counts)


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Unweighted shortest distances from ``source`` to every node.

    Unreachable nodes get ``-1``.

    Parameters
    ----------
    graph: the graph (directed arcs; symmetric graphs behave undirected).
    source: start node.
    """
    if not 0 <= source < graph.num_nodes:
        raise ValueError("source out of range")
    indptr, indices, _ = graph.csr()
    dist = np.full(graph.num_nodes, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while frontier.size:
        nxt = _expand_frontier(indptr, indices, frontier)
        nxt = nxt[dist[nxt] < 0]
        if nxt.size == 0:
            break
        nxt = sorted_unique(nxt)
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
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-per-source BFS distances in one frontier sweep, in sparse form.

    Returns ``(keys, depth)``: the sorted, unique int64 composite keys
    ``row * N + node`` of every ``(source row, node)`` pair reached, and
    the int32 hop count of each. Row ``i`` holds exactly the nodes that
    ``bfs_distances(graph, sources[i])`` reaches within ``max_depth``, with the same
    distances; its slice is ``np.searchsorted(keys, [i * N, (i + 1) * N])``.

    All sources advance level by level together on a composite
    ``(source, node)`` frontier expanded with the same ragged gather
    single-source BFS uses. Each level sorts its new keys, drops
    duplicates with a neighbour mask and drops keys already reached with
    one ``searchsorted`` against the sorted reached set, so the work and
    memory grow with the keys the frontier touches, never with
    ``S * N``.

    Parameters
    ----------
    indptr, indices: the CSR adjacency (``Graph.csr()``'s first two arrays).
    sources: ``(S,)`` start nodes (duplicates allowed; each gets a row).
    max_depth: stop expanding beyond this many hops when given.
    """
    num_nodes = int(indptr.shape[0]) - 1
    sources = np.asarray(sources, dtype=np.int64)
    if sources.ndim != 1:
        raise ValueError("sources must be one-dimensional")
    n_src = sources.shape[0]
    if n_src == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    if sources.min() < 0 or sources.max() >= num_nodes:
        raise ValueError("source out of range")
    _check_key_space(n_src, num_nodes)
    n = np.int64(num_nodes)
    # Rows ascend and every node is < N, so the level-0 keys are sorted.
    frontier = np.arange(n_src, dtype=np.int64) * n + sources
    levels = [frontier]
    seen = frontier
    depth = 0
    while max_depth is None or depth < max_depth:
        f_rows = frontier // n
        f_nodes = frontier - f_rows * n
        starts = indptr[f_nodes]
        counts = indptr[f_nodes + 1] - starts
        nxt_nodes = _take_ragged(indices, starts, counts)
        nxt_rows = np.repeat(f_rows, counts)
        keys = sorted_unique(nxt_rows * n + nxt_nodes)
        pos = np.searchsorted(seen, keys)
        keys = keys[seen[np.minimum(pos, seen.shape[0] - 1)] != keys]
        if keys.size == 0:
            break
        depth += 1
        levels.append(keys)
        if depth == max_depth:
            break
        seen = np.sort(np.concatenate([seen, keys]))
        frontier = keys
    # Levels are disjoint; one argsort carries each key's level along.
    keys = np.concatenate(levels)
    order = np.argsort(keys)
    level = np.repeat(
        np.arange(len(levels), dtype=np.int32), [lv.shape[0] for lv in levels]
    )
    return keys[order], level[order]


def k_hop_union(graph: Graph, sources: np.ndarray, k: int) -> np.ndarray:
    """Sorted array of nodes within ``k`` hops of *any* source (inclusive).

    The halo primitive of the graph partitioner and of the scorer's delta
    invalidation: one boolean-visited frontier sweep over the CSR covers
    every source at once, so the cost is O(N + edges touched) regardless
    of how many sources there are — unlike ``S`` separate
    :func:`bfs_distances` calls or a :func:`multi_source_bfs`, which keeps
    each source's ball apart.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    sources = sorted_unique(np.asarray(sources, dtype=np.int64))
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
        nxt = sorted_unique(nxt)
        visited[nxt] = True
        frontier = nxt
    return np.flatnonzero(visited)
