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
* Subgraphs come from one batched extraction per call
  (:func:`repro.graph.bulk.extract_enclosing_subgraphs`), with one
  derived ``max_nodes`` tie-break stream per link index, so a link's
  encoding does not depend on the other links of the batch.
* Initial colors follow the original recipe: nodes are seeded by their
  mean distance to the two target links' endpoints (targets first),
  each distance taken with the other target blocked (DRNL's distances).
* Color refinement is the classic 1-WL hash on (own color, sorted
  multiset of neighbor colors), iterated to stability, with ties broken
  by initial order. The final total order truncates the subgraph to the
  ``k`` highest-priority vertices.
* The encoding vector is the upper triangle of the reordered k×k
  adjacency, with the target-link entry (1,2) removed (it is the label
  being predicted).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.bulk import extract_enclosing_subgraphs
from repro.graph.structure import Graph
from repro.nn.dense import MLP
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.seal.dataset import LinkTask
from repro.utils.rng import RngLike, ensure_rng, derive

__all__ = ["wl_order", "encode_subgraph", "WLNMClassifier"]

#: refinement rounds before palette-WL stops even if colors still split
WL_MAX_ITERS = 20
#: the dense network's hidden widths, Adam step and mini-batch size
HIDDEN = (64, 32)
LR = 1e-3
BATCH_SIZE = 32


def wl_order(edge_index: np.ndarray, dist_a: np.ndarray, dist_b: np.ndarray) -> np.ndarray:
    """Palette-WL vertex ordering of an enclosing subgraph.

    The subgraph has ``len(dist_a)`` nodes with targets 0 and 1,
    subgraph-local arcs ``edge_index`` and each node's distance to
    either target (``-1`` = unreachable). Returns node indices sorted by
    priority (targets first, then by refined WL color, ties by initial
    distance seed then node id).
    """
    n = dist_a.shape[0]
    # Seed colors: average distance to the two targets; unreachable gets
    # a large sentinel so it sorts last.
    da = np.where(dist_a >= 0, dist_a, n + 1)
    db = np.where(dist_b >= 0, dist_b, n + 1)
    seed = da + db
    seed[:2] = -1  # targets always first

    # Map seeds to dense initial colors (ascending seed = high priority).
    _, colors = np.unique(seed, return_inverse=True)

    indptr, indices, _ = Graph(n, edge_index).csr()
    for _ in range(WL_MAX_ITERS):
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
    return np.concatenate([[0, 1], order[order > 1]]).astype(np.int64)


def encode_subgraph(
    edge_index: np.ndarray, dist_a: np.ndarray, dist_b: np.ndarray, k: int
) -> np.ndarray:
    """Fixed-size adjacency encoding: upper triangle of the reordered k×k
    adjacency with the target-link slot removed. Length ``k(k-1)/2 - 1``.

    The subgraph is given as in :func:`wl_order`.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    order = wl_order(edge_index, dist_a, dist_b)[:k]
    lookup = np.full(dist_a.shape[0], -1, dtype=np.int64)
    lookup[order] = np.arange(len(order))
    adj = np.zeros((k, k))
    src, dst = edge_index
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
    epochs: passes over the training links.
    """

    def __init__(
        self,
        num_classes: int,
        k: int = 10,
        epochs: int = 60,
        rng: RngLike = 0,
    ):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_classes = num_classes
        self.k = k
        self.epochs = epochs
        self.rng = rng
        self.mlp: Optional[MLP] = None

    @property
    def input_dim(self) -> int:
        return self.k * (self.k - 1) // 2 - 1

    def _encode_links(self, task: LinkTask, indices: np.ndarray) -> np.ndarray:
        subs = extract_enclosing_subgraphs(
            task.graph,
            task.pairs[indices],
            k=task.num_hops,
            mode=task.subgraph_mode,
            max_nodes=max(task.max_subgraph_nodes or 100, self.k),
            rng_factory=lambda pos: derive(self.rng, "wlnm-extract", str(int(indices[pos]))),
        )
        no, eo = subs.node_offsets, subs.edge_offsets
        out = np.zeros((len(indices), self.input_dim))
        for row in range(len(indices)):
            nodes = slice(no[row], no[row + 1])
            out[row] = encode_subgraph(
                subs.edge_index[:, eo[row] : eo[row + 1]],
                subs.dist_src[nodes],
                subs.dist_dst[nodes],
                self.k,
            )
        return out

    def fit(self, task: LinkTask, train_indices: np.ndarray) -> "WLNMClassifier":
        """Encode and train the dense network; returns self."""
        train_indices = np.asarray(train_indices, dtype=np.int64)
        x = self._encode_links(task, train_indices)
        y = task.labels[train_indices]
        self.mlp = MLP(
            [self.input_dim, *HIDDEN, self.num_classes], rng=derive(self.rng, "wlnm")
        )
        opt = Adam(self.mlp.parameters(), lr=LR)
        order_rng = ensure_rng(derive(self.rng, "wlnm-shuffle"))
        for _ in range(self.epochs):
            perm = order_rng.permutation(len(x))
            for start in range(0, len(perm), BATCH_SIZE):
                sel = perm[start : start + BATCH_SIZE]
                opt.zero_grad()
                loss = cross_entropy(self.mlp(Tensor(x[sel])), y[sel])
                loss.backward()
                opt.step()
        return self

    def predict_proba(self, task: LinkTask, indices: np.ndarray) -> np.ndarray:
        """Class probabilities for the given link indices."""
        if self.mlp is None:
            raise RuntimeError("classifier is not fitted")
        x = self._encode_links(task, np.asarray(indices, dtype=np.int64))
        with no_grad():
            logits = self.mlp(Tensor(x)).data
        logits = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)

    def predict(self, task: LinkTask, indices: np.ndarray) -> np.ndarray:
        """Argmax class per link."""
        return self.predict_proba(task, indices).argmax(axis=1)
