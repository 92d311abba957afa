"""node2vec random walks (Grover & Leskovec, KDD'16).

SEAL's node information matrix optionally includes node2vec embeddings;
the paper observed they "did not enhance prediction accuracy for
knowledge graphs" and dropped them (§III-B). The component is
implemented here anyway so the with/without ablation is runnable.

Walks use node2vec's default return and in-out parameters, ``p = q = 1``,
under which its 2nd-order bias weighs every neighbor alike: each step
moves to a uniformly drawn neighbor of the current node.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graph.structure import Graph
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["generate_walks"]


def generate_walks(
    graph: Graph,
    num_walks: int = 10,
    walk_length: int = 20,
    rng: RngLike = None,
) -> List[np.ndarray]:
    """``num_walks`` random walks from every node.

    Returns a list of integer arrays (one per walk, length ≤
    ``walk_length``; shorter if a dead end is reached).
    """
    if num_walks <= 0 or walk_length <= 1:
        raise ValueError("need num_walks >= 1 and walk_length >= 2")
    gen = ensure_rng(rng)
    indptr, indices, _ = graph.csr()

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
                walk.append(int(nbrs[gen.integers(0, len(nbrs))]))
            walks.append(np.array(walk, dtype=np.int64))
    return walks
