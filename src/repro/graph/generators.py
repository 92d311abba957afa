"""Low-level random-graph primitives used by the dataset generators.

Three degree-profile families cover the paper's datasets:

* :func:`barabasi_albert_edges` — heavy-tailed degrees (biomedical KGs
  like PrimeKG/BioKG have hub drugs/proteins),
* :func:`erdos_renyi_edges` — homogeneous sparse background,
* :func:`stochastic_block_edges` — community structure (citation
  networks like Cora).

All functions return undirected edge lists ``(M, 2)`` with ``u < v`` and
no duplicates, ready for :meth:`repro.graph.Graph.from_undirected`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "erdos_renyi_edges",
    "barabasi_albert_edges",
    "preferential_attachment_edges",
    "stochastic_block_edges",
    "dedupe_edges",
]


def dedupe_edges(edges: np.ndarray) -> np.ndarray:
    """Canonicalize an undirected edge list: u < v, unique rows, no loops."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return edges.reshape(0, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keep = lo != hi
    canon = np.stack([lo[keep], hi[keep]], axis=1)
    return np.unique(canon, axis=0)


def erdos_renyi_edges(n: int, p: float, rng: RngLike = None) -> np.ndarray:
    """G(n, p) undirected edges, sampled via binomial edge-count + rejection.

    For the sparse regimes used here (p ≪ 1) this avoids materializing the
    O(n²) adjacency: draw the edge count, then sample pairs uniformly and
    dedupe until the count is met.
    """
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    gen = ensure_rng(rng)
    total_pairs = n * (n - 1) // 2
    m = gen.binomial(total_pairs, p)
    if m == 0:
        return np.empty((0, 2), dtype=np.int64)
    edges = np.empty((0, 2), dtype=np.int64)
    while edges.shape[0] < m:
        need = int((m - edges.shape[0]) * 1.3) + 8
        cand = gen.integers(0, n, size=(need, 2))
        edges = dedupe_edges(np.concatenate([edges, cand]))
    # Trim overshoot deterministically via shuffled selection.
    sel = gen.permutation(edges.shape[0])[:m]
    return edges[np.sort(sel)]


def barabasi_albert_edges(n: int, m: int, rng: RngLike = None) -> np.ndarray:
    """Barabási–Albert preferential attachment with ``m`` edges per new node.

    Implemented with the repeated-nodes trick: attachment targets are drawn
    uniformly from a list containing each node once per incident edge,
    which realizes degree-proportional sampling in O(total edges).
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    gen = ensure_rng(rng)
    # Seed: a small clique on m+1 nodes so every early node has degree >= m.
    seed_nodes = np.arange(m + 1)
    edges = [(int(a), int(b)) for i, a in enumerate(seed_nodes) for b in seed_nodes[i + 1 :]]
    repeated: list = [v for e in edges for v in e]
    for new in range(m + 1, n):
        targets: set = set()
        while len(targets) < m:
            pick = repeated[int(gen.integers(0, len(repeated)))]
            targets.add(pick)
        for t in targets:
            edges.append((t, new))
            repeated.extend((t, new))
    return dedupe_edges(np.array(edges, dtype=np.int64))


def preferential_attachment_edges(n: int, m: int, rng: RngLike = None) -> np.ndarray:
    """Vectorized preferential attachment for 10⁵–10⁶-node graphs.

    The Batagelj–Brandes formulation of Barabási–Albert: conceptually,
    a flat array ``E`` interleaves sources (``E[2j] = j // m``) and
    targets, and target ``j`` copies a uniformly random earlier entry
    ``E[r_j]`` with ``r_j ~ U[0, 2j+1)`` — copying a *target* entry with
    probability proportional to how often its node already appears,
    which is exactly degree-proportional attachment. Instead of
    materializing ``E`` entry by entry, the odd (target-referencing)
    draws are resolved by iterated gather (pointer doubling): every pass
    rewrites ``p ← r[(p - 1) / 2]`` for the still-odd pointers, and the
    chain length halves geometrically — O(E) numpy work plus an
    O(log E)-round resolve, no per-edge Python loop.

    Same degree profile as :func:`barabasi_albert_edges` but *not* the
    same seeded edge stream: the legacy generator's clique seed and
    rejection loop are kept bit-stable for existing datasets, while this
    one exists for workloads the Python loop cannot reach (the
    ``BENCH_scale`` corpus). Self-loops and duplicate draws are dropped
    by :func:`dedupe_edges` — the usual Batagelj–Brandes concession, a
    vanishing fraction of edges for n ≫ m.
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    gen = ensure_rng(rng)
    total = n * m
    j = np.arange(total, dtype=np.int64)
    r = gen.integers(0, 2 * j + 1)  # per-element bound: U[0, 2j+1)
    p = r.copy()
    odd = (p & 1).astype(bool)
    while odd.any():
        p[odd] = r[(p[odd] - 1) >> 1]
        odd = (p & 1).astype(bool)
    src = j // m
    dst = (p >> 1) // m
    return dedupe_edges(np.stack([src, dst], axis=1))


def stochastic_block_edges(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    rng: RngLike = None,
) -> np.ndarray:
    """Stochastic block model edges over consecutive node blocks.

    Nodes ``0..sum(sizes)-1`` are partitioned into blocks in order; pairs
    inside a block connect w.p. ``p_in``, across blocks w.p. ``p_out``.
    Sampled blockwise with the same sparse rejection strategy as
    :func:`erdos_renyi_edges`.
    """
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if (sizes <= 0).any():
        raise ValueError("block sizes must be positive")
    gen = ensure_rng(rng)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    parts = []
    nblocks = len(sizes)
    for i in range(nblocks):
        ni = int(sizes[i])
        # Within-block.
        intra = erdos_renyi_edges(ni, p_in, gen)
        if intra.size:
            parts.append(intra + starts[i])
        # Cross-block (i < j): binomial count over the ni*nj bipartite pairs.
        for j in range(i + 1, nblocks):
            nj = int(sizes[j])
            mij = gen.binomial(ni * nj, p_out)
            if mij == 0:
                continue
            us = gen.integers(0, ni, size=mij) + starts[i]
            vs = gen.integers(0, nj, size=mij) + starts[j]
            parts.append(np.stack([us, vs], axis=1))
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return dedupe_edges(np.concatenate(parts))
