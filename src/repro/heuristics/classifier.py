"""Heuristic-feature link classifier (the related-work baseline, §VI-A).

Builds a feature vector of topology heuristics (plus the endpoints'
node features, when the graph has them) per link and fits a
multinomial logistic-regression classifier — the decision-tree/LR
paradigm of Katragadda et al. and Vasavada et al. that the paper argues
supervised heuristic *learning* supersedes. Serves as the classical
baseline in the benchmark suite.

The logistic regression is trained with full-batch gradient descent on
the library's own autograd (no sklearn in the environment).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.structure import Graph
from repro.heuristics.local import LOCAL_HEURISTICS, graph_without_pairs
from repro.nn.dense import Linear
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import RngLike

__all__ = ["heuristic_features", "HeuristicLinkClassifier"]

#: the logistic regression's Adam step and coupled L2 decay
LR = 0.1
WEIGHT_DECAY = 1e-4

HEURISTICS = (
    "common_neighbors",
    "jaccard",
    "adamic_adar",
    "resource_allocation",
    "preferential_attachment",
)


def heuristic_features(graph: Graph, pairs: np.ndarray) -> np.ndarray:
    """Feature matrix ``(M, F)`` of ``pairs``: heuristics, then endpoint rows.

    One column per :data:`HEURISTICS` score, ``log1p``-scaled so the
    unbounded ones (CN, PA) keep the LR weights well-conditioned, then
    both endpoints' explicit feature rows when ``graph`` has them.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    cols: List[np.ndarray] = []
    for name in HEURISTICS:
        scores = LOCAL_HEURISTICS[name](graph, pairs)
        cols.append(np.log1p(np.maximum(scores, 0.0))[:, None])
    if graph.node_features is not None:
        cols.append(graph.node_features[pairs[:, 0]])
        cols.append(graph.node_features[pairs[:, 1]])
    return np.concatenate(cols, axis=1)


@dataclass
class _FitState:
    mean: np.ndarray
    std: np.ndarray


class HeuristicLinkClassifier:
    """Multinomial logistic regression over heuristic link features.

    Every scored pair's own edge is stripped from the graph before its
    features are computed — the heuristic analogue of SEAL's leakage
    guard (a pair's direct edge is the label, not a feature).
    """

    def __init__(
        self,
        num_classes: int,
        epochs: int = 300,
        rng: RngLike = 0,
    ):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        self.num_classes = num_classes
        self.epochs = epochs
        self.rng = rng
        self.linear: Optional[Linear] = None
        self._state: Optional[_FitState] = None

    def _featurize(self, graph: Graph, pairs: np.ndarray) -> np.ndarray:
        return heuristic_features(graph_without_pairs(graph, pairs), pairs)

    def fit(self, graph: Graph, pairs: np.ndarray, labels: np.ndarray) -> "HeuristicLinkClassifier":
        """Fit on training links; returns self."""
        x = self._featurize(graph, pairs)
        labels = np.asarray(labels, dtype=np.int64)
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        std[std < 1e-9] = 1.0
        self._state = _FitState(mean, std)
        xn = (x - mean) / std

        self.linear = Linear(xn.shape[1], self.num_classes, rng=self.rng)
        opt = Adam(self.linear.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
        xt = Tensor(xn)
        for _ in range(self.epochs):
            opt.zero_grad()
            loss = cross_entropy(self.linear(xt), labels)
            loss.backward()
            opt.step()
        return self

    def predict_proba(self, graph: Graph, pairs: np.ndarray) -> np.ndarray:
        """Class probabilities ``(M, C)``."""
        if self.linear is None or self._state is None:
            raise RuntimeError("classifier is not fitted")
        x = self._featurize(graph, pairs)
        xn = (x - self._state.mean) / self._state.std
        with no_grad():
            logits = self.linear(Tensor(xn)).data
        logits = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(logits)
        return expd / expd.sum(axis=1, keepdims=True)

    def predict(self, graph: Graph, pairs: np.ndarray) -> np.ndarray:
        """Argmax class ids."""
        return self.predict_proba(graph, pairs).argmax(axis=1)
