"""Weisfeiler-Lehman Neural Machine (Zhang & Chen, KDD'17) — paper §VI-B.

The predecessor of SEAL that the paper's related-work section critiques:
extract the enclosing subgraph, order its vertices with a
Weisfeiler-Lehman-style color refinement (palette-WL), truncate/pad the
adjacency matrix to a fixed size, and feed the flattened upper triangle
to a fully connected network. Its documented weaknesses — fixed-size
truncation losing structure, no node/edge features — are exactly what
the benchmarks demonstrate against SEAL+AM-DGCNN.

Implementation notes
--------------------
* Initial colors follow the original recipe: nodes are seeded by their
  mean distance to the two target links' endpoints (targets first).
* Color refinement is the classic 1-WL hash on (own color, sorted
  multiset of neighbor colors), iterated to stability, with ties broken
  by initial order. The final total order truncates the subgraph to the
  ``k`` highest-priority vertices.
* The encoding vector is the upper triangle of the reordered k×k
  adjacency, with the target-link entry (1,2) removed (it is the label
  being predicted).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.structure import Graph
from repro.graph.subgraph import EnclosingSubgraph, extract_enclosing_subgraph
from repro.nn.dense import MLP
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.seal.dataset import LinkTask
from repro.utils.rng import RngLike, ensure_rng, derive

__all__ = ["wl_order", "encode_subgraph", "WLNMClassifier"]


def wl_order(sub: EnclosingSubgraph, max_iters: int = 20) -> np.ndarray:
    """Palette-WL vertex ordering of an enclosing subgraph.

    Returns node indices sorted by priority (targets first, then by
    refined WL color, ties by initial distance seed then node id).
    """
    g = sub.graph
    n = g.num_nodes
    # Seed colors: average distance to the two targets; unreachable gets
    # a large sentinel so it sorts last.
    da = np.where(sub.dist_a >= 0, sub.dist_a, n + 1)
    db = np.where(sub.dist_b >= 0, sub.dist_b, n + 1)
    seed = da + db
    seed[sub.src] = -1  # targets always first
    seed[sub.dst] = -1

    # Map seeds to dense initial colors (ascending seed = high priority).
    _, colors = np.unique(seed, return_inverse=True)

    indptr, indices, _ = g.csr()
    for _ in range(max_iters):
        # Order-preserving refinement: new colors are the lexicographic
        # ranks of (own color, sorted neighbor colors), so the initial
        # distance-based priority survives refinement (palette-WL).
        signatures = []
        for v in range(n):
            nbr_colors = np.sort(colors[indices[indptr[v] : indptr[v + 1]]])
            signatures.append((int(colors[v]), tuple(nbr_colors.tolist())))
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = np.array([ranking[s] for s in signatures], dtype=np.int64)
        if len(np.unique(new_colors)) == len(np.unique(colors)):
            colors = new_colors
            break
        colors = new_colors

    order = np.lexsort((np.arange(n), colors))
    # Force the two targets to the very front regardless of refinement.
    order = np.concatenate(
        [[sub.src, sub.dst], [v for v in order if v not in (sub.src, sub.dst)]]
    ).astype(np.int64)
    return order


def encode_subgraph(sub: EnclosingSubgraph, k: int) -> np.ndarray:
    """Fixed-size adjacency encoding: upper triangle of the reordered k×k
    adjacency with the target-link slot removed. Length ``k(k-1)/2 - 1``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    order = wl_order(sub)[:k]
    g = sub.graph
    lookup = np.full(g.num_nodes, -1, dtype=np.int64)
    lookup[order] = np.arange(len(order))
    adj = np.zeros((k, k))
    src, dst = g.edge_index
    s, d = lookup[src], lookup[dst]
    keep = (s >= 0) & (d >= 0)
    adj[s[keep], d[keep]] = 1.0
    adj = np.maximum(adj, adj.T)
    iu = np.triu_indices(k, 1)
    vec = adj[iu]
    # Drop the (0, 1) slot — the target link itself.
    return np.delete(vec, 0)


class WLNMClassifier:
    """WLNM link classifier over a :class:`~repro.seal.LinkTask`.

    Parameters
    ----------
    k: fixed vertex budget of the encoded subgraph (original paper: 10).
    hidden: MLP hidden widths.
    """

    def __init__(
        self,
        num_classes: int,
        k: int = 10,
        hidden: Tuple[int, ...] = (64, 32),
        lr: float = 1e-3,
        epochs: int = 60,
        batch_size: int = 32,
        rng: RngLike = 0,
    ):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_classes = num_classes
        self.k = k
        self.hidden = hidden
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.rng = rng
        self.mlp: Optional[MLP] = None

    @property
    def input_dim(self) -> int:
        return self.k * (self.k - 1) // 2 - 1

    def _encode_links(self, task: LinkTask, indices: np.ndarray, rng) -> np.ndarray:
        out = np.zeros((len(indices), self.input_dim))
        for row, i in enumerate(indices):
            u, v = task.pairs[int(i)]
            sub = extract_enclosing_subgraph(
                task.graph,
                int(u),
                int(v),
                k=task.num_hops,
                mode=task.subgraph_mode,
                max_nodes=max(task.max_subgraph_nodes or 100, self.k),
                rng=rng,
            )
            out[row] = encode_subgraph(sub, self.k)
        return out

    def fit(self, task: LinkTask, train_indices: np.ndarray) -> "WLNMClassifier":
        """Encode and train the dense network; returns self."""
        gen = derive(self.rng, "wlnm")
        train_indices = np.asarray(train_indices, dtype=np.int64)
        x = self._encode_links(task, train_indices, gen)
        y = task.labels[train_indices]
        self.mlp = MLP([self.input_dim, *self.hidden, self.num_classes], rng=gen)
        opt = Adam(self.mlp.parameters(), lr=self.lr)
        order_rng = ensure_rng(derive(self.rng, "wlnm-shuffle"))
        for _ in range(self.epochs):
            perm = order_rng.permutation(len(x))
            for start in range(0, len(perm), self.batch_size):
                sel = perm[start : start + self.batch_size]
                opt.zero_grad()
                loss = cross_entropy(self.mlp(Tensor(x[sel])), y[sel])
                loss.backward()
                opt.step()
        return self

    def predict_proba(self, task: LinkTask, indices: np.ndarray) -> np.ndarray:
        """Class probabilities for the given link indices."""
        if self.mlp is None:
            raise RuntimeError("classifier is not fitted")
        gen = derive(self.rng, "wlnm")
        x = self._encode_links(task, np.asarray(indices, dtype=np.int64), gen)
        with no_grad():
            logits = self.mlp(Tensor(x)).data
        logits = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)

    def predict(self, task: LinkTask, indices: np.ndarray) -> np.ndarray:
        """Argmax class per link."""
        return self.predict_proba(task, indices).argmax(axis=1)
