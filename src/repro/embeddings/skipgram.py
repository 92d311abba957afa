"""Skip-gram with negative sampling (SGNS) over random walks.

The word2vec objective applied to node sequences: maximize
``log σ(z_u · z_v)`` for (center, context) pairs within a window, and
``log σ(-z_u · z_n)`` for sampled negatives. Trained with vectorized
mini-batch SGD directly on the two embedding matrices (input/output),
no autograd needed — the gradient is closed-form.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.dtype import FLOAT64

from repro.utils.rng import RngLike, ensure_rng

__all__ = ["walks_to_pairs", "train_skipgram", "node2vec_embeddings"]

#: context half-width of a (center, context) pair, in walk steps
WINDOW = 5
#: negatives per positive pair, SGD step and pairs per mini-batch (word2vec's)
NEGATIVES = 5
LR = 0.025
BATCH_SIZE = 1024


def walks_to_pairs(walks: Sequence[np.ndarray]) -> np.ndarray:
    """(center, context) pairs from walks within a symmetric ``WINDOW``."""
    pairs: List[np.ndarray] = []
    for walk in walks:
        n = len(walk)
        for offset in range(1, WINDOW + 1):
            if n <= offset:
                continue
            left = walk[:-offset]
            right = walk[offset:]
            pairs.append(np.stack([left, right], axis=1))
            pairs.append(np.stack([right, left], axis=1))
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(pairs, axis=0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


def train_skipgram(
    pairs: np.ndarray,
    num_nodes: int,
    dim: int = 32,
    epochs: int = 3,
    rng: RngLike = None,
) -> np.ndarray:
    """Train SGNS; returns the input embedding matrix ``(num_nodes, dim)``.

    Negatives are sampled from the context distribution raised to the 3/4
    power (the word2vec heuristic).
    """
    if dim <= 0 or epochs <= 0:
        raise ValueError("invalid skip-gram hyperparameters")
    gen = ensure_rng(rng)
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.zeros((num_nodes, dim))
    z_in = (gen.random((num_nodes, dim)) - 0.5) / dim
    z_out = np.zeros((num_nodes, dim))

    freq = np.bincount(pairs[:, 1], minlength=num_nodes).astype(FLOAT64)
    noise = freq**0.75
    noise /= noise.sum()

    for _ in range(epochs):
        order = gen.permutation(len(pairs))
        for start in range(0, len(order), BATCH_SIZE):
            batch = pairs[order[start : start + BATCH_SIZE]]
            centers, contexts = batch[:, 0], batch[:, 1]
            b = len(batch)
            negs = gen.choice(num_nodes, size=(b, NEGATIVES), p=noise)

            zc = z_in[centers]  # (B, D)
            zo = z_out[contexts]  # (B, D)
            zn = z_out[negs]  # (B, K, D)

            # Positive term.
            g_pos = _sigmoid((zc * zo).sum(axis=1)) - 1.0  # (B,)
            # Negative terms.
            g_neg = _sigmoid(np.einsum("bd,bkd->bk", zc, zn))  # (B, K)

            grad_zc = g_pos[:, None] * zo + np.einsum("bk,bkd->bd", g_neg, zn)
            grad_zo = g_pos[:, None] * zc
            grad_zn = g_neg[..., None] * zc[:, None, :]

            np.add.at(z_in, centers, -LR * grad_zc)
            np.add.at(z_out, contexts, -LR * grad_zo)
            np.add.at(z_out, negs, -LR * grad_zn)
    return z_in


def node2vec_embeddings(
    graph,
    dim: int = 32,
    num_walks: int = 10,
    walk_length: int = 20,
    epochs: int = 3,
    rng: RngLike = None,
) -> np.ndarray:
    """End-to-end node2vec: walks → pairs → SGNS → embeddings."""
    from repro.embeddings.node2vec import generate_walks

    gen = ensure_rng(rng)
    walks = generate_walks(graph, num_walks=num_walks, walk_length=walk_length, rng=gen)
    pairs = walks_to_pairs(walks)
    return train_skipgram(pairs, graph.num_nodes, dim=dim, epochs=epochs, rng=gen)
