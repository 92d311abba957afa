"""node2vec biased random walks (Grover & Leskovec, KDD'16).

SEAL's node information matrix optionally includes node2vec embeddings;
the paper observed they "did not enhance prediction accuracy for
knowledge graphs" and dropped them (§III-B). The full component is
implemented here anyway so the with/without ablation is runnable.

Walk generation implements the 2nd-order bias: the unnormalized
transition weight from ``v`` to candidate ``x`` given the previous node
``t`` is ``1/p`` if ``x == t`` (return), ``1`` if ``x`` neighbors ``t``
(BFS-like), else ``1/q`` (DFS-like).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.dtype import FLOAT64

from repro.graph.structure import Graph
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["generate_walks"]


def generate_walks(
    graph: Graph,
    num_walks: int = 10,
    walk_length: int = 20,
    p: float = 1.0,
    q: float = 1.0,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """Biased random walks from every node.

    Returns a list of integer arrays (one per walk, length ≤
    ``walk_length``; shorter if a dead end is reached). ``p`` is the
    return parameter, ``q`` the in-out parameter.
    """
    if num_walks <= 0 or walk_length <= 1:
        raise ValueError("need num_walks >= 1 and walk_length >= 2")
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    gen = ensure_rng(rng)
    indptr, indices, _ = graph.csr()
    nbr_sets = [set(indices[indptr[v] : indptr[v + 1]].tolist()) for v in range(graph.num_nodes)]

    walks: List[np.ndarray] = []
    for _ in range(num_walks):
        order = gen.permutation(graph.num_nodes)
        for start in order:
            walk = [int(start)]
            while len(walk) < walk_length:
                cur = walk[-1]
                lo, hi = indptr[cur], indptr[cur + 1]
                if hi == lo:
                    break
                nbrs = indices[lo:hi]
                if len(walk) == 1 or (p == 1.0 and q == 1.0):
                    nxt = int(nbrs[gen.integers(0, len(nbrs))])
                else:
                    prev = walk[-2]
                    prev_nbrs = nbr_sets[prev]
                    weights = np.empty(len(nbrs), dtype=FLOAT64)
                    for i, x in enumerate(nbrs):
                        if x == prev:
                            weights[i] = 1.0 / p
                        elif int(x) in prev_nbrs:
                            weights[i] = 1.0
                        else:
                            weights[i] = 1.0 / q
                    weights /= weights.sum()
                    nxt = int(nbrs[gen.choice(len(nbrs), p=weights)])
                walk.append(nxt)
            walks.append(np.array(walk, dtype=np.int64))
    return walks
