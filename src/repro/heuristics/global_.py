"""High-order (γ-decaying) link heuristics: Katz, PageRank, SimRank.

These are the high-order heuristics the SEAL theory shows are
approximable from local enclosing subgraphs (paper §II-B). Implemented on
scipy.sparse adjacency for the pair-scoring interface shared with
:mod:`repro.heuristics.local`.
"""

from __future__ import annotations

from typing import Dict, Callable

import numpy as np
import scipy.sparse as sp

from repro.graph.structure import Graph

__all__ = ["katz_index", "rooted_pagerank", "simrank", "GLOBAL_HEURISTICS"]

#: longest walk the truncated Katz series sums
KATZ_MAX_POWER = 6
#: rooted PageRank's continue probability and power-iteration rounds
PAGERANK_ALPHA = 0.85
PAGERANK_ITERS = 50
#: SimRank's decay and iteration rounds
SIMRANK_C = 0.8
SIMRANK_ITERS = 5


def _adjacency(graph: Graph) -> sp.csr_matrix:
    src, dst = graph.edge_index
    n = graph.num_nodes
    a = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    a = a.tocsr()
    a.data[:] = 1.0  # collapse multi-arcs
    return a


def katz_index(
    graph: Graph,
    pairs: np.ndarray,
    beta: float = 0.005,
) -> np.ndarray:
    """Truncated Katz index ``Σ_l β^l (A^l)_{uv}`` for each pair.

    ``β`` must be below ``1/λ_max`` for the full series to converge; the
    truncation at ``KATZ_MAX_POWER`` keeps the computation exact per term and
    is itself a γ-decaying approximation (paper §II-B).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    pairs = np.asarray(pairs, dtype=np.int64)
    a = _adjacency(graph)
    # Iterate scores column-block-wise from the unique source nodes.
    sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
    # walk[s] starts as e_s^T A and accumulates beta^l A^l rows.
    basis = sp.coo_matrix(
        (np.ones(len(sources)), (np.arange(len(sources)), sources)),
        shape=(len(sources), graph.num_nodes),
    ).tocsr()
    walk = basis @ a
    scores_rows = beta * walk.toarray()
    factor = beta
    for _ in range(1, KATZ_MAX_POWER):
        walk = walk @ a
        factor *= beta
        scores_rows += factor * walk.toarray()
    return scores_rows[inverse, pairs[:, 1]]


def rooted_pagerank(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """Rooted (personalized) PageRank score ``π_u[v] + π_v[u]``.

    Power iteration on the column-stochastic transition matrix with
    restart probability ``1 - PAGERANK_ALPHA`` at the root. The
    symmetric sum is the usual link-prediction variant.
    """
    alpha = PAGERANK_ALPHA
    pairs = np.asarray(pairs, dtype=np.int64)
    a = _adjacency(graph)
    deg = np.asarray(a.sum(axis=1)).ravel()
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    trans = sp.diags(inv_deg) @ a  # row-stochastic (dangling rows zero)

    roots = np.unique(pairs.ravel())
    restart = np.zeros((len(roots), graph.num_nodes))
    restart[np.arange(len(roots)), roots] = 1.0
    pi = restart.copy()
    for _ in range(PAGERANK_ITERS):
        # pi_{t+1} = alpha * pi_t P + (1-alpha) e_root, rows batched.
        pi = alpha * (trans.T @ pi.T).T + (1 - alpha) * restart
    lookup = {int(r): i for i, r in enumerate(roots)}
    u_idx = np.array([lookup[int(u)] for u in pairs[:, 0]])
    v_idx = np.array([lookup[int(v)] for v in pairs[:, 1]])
    return pi[u_idx, pairs[:, 1]] + pi[v_idx, pairs[:, 0]]


def simrank(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """SimRank similarity (Jeh & Widom, 2002) via full-matrix iteration.

    ``S = max(c · P^T S P, I)`` with ``c = SIMRANK_C`` and ``P`` the
    column-normalized adjacency. O(n²) memory — intended for the small graphs used in
    tests/benchmarks (the γ-decaying theory says the GNN approximates it
    from local subgraphs anyway).
    """
    n = graph.num_nodes
    if n > 3000:
        raise ValueError("simrank is O(n^2); graph too large")
    a = _adjacency(graph).toarray()
    deg = a.sum(axis=0)
    p = np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)  # column-normalized
    s = np.eye(n)
    for _ in range(SIMRANK_ITERS):
        s = SIMRANK_C * (p.T @ s @ p)
        np.fill_diagonal(s, 1.0)
    pairs = np.asarray(pairs, dtype=np.int64)
    return s[pairs[:, 0], pairs[:, 1]]


GLOBAL_HEURISTICS: Dict[str, Callable[[Graph, np.ndarray], np.ndarray]] = {
    "katz": katz_index,
    "rooted_pagerank": rooted_pagerank,
    "simrank": simrank,
}
