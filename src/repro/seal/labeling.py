"""Double-Radius Node Labeling (DRNL) — paper §II-B.

Every node of an enclosing subgraph gets an integer label encoding its
pair of distances ``(x, y)`` to the two target nodes through the
symmetric pairing function

.. math::
    D(x, y) = 1 + \\min(x, y) + \\lfloor d/2 \\rfloor
              \\big(\\lfloor d/2 \\rfloor + (d \\bmod 2) - 1\\big),
    \\qquad d = x + y

(the closed form in the paper is the same expression with the product
expanded). The two target nodes get the distinctive label **1** and any
node unreachable from either target gets the null label **0**.

Following the SEAL reference implementation, the distance ``x`` of a node
to target ``a`` is computed **with the other target ``b`` removed** from
the subgraph (and vice versa) so labels describe paths that do not take a
shortcut through the second target.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import one_hot

__all__ = [
    "drnl_value",
    "drnl_labels_from_distances",
    "drnl_one_hot",
    "DEFAULT_MAX_LABEL",
]

# Labels above this are clamped into the top bucket of the one-hot
# encoding. For k=2 subgraphs distances rarely exceed 5, giving labels
# comfortably below this bound; the clamp guards pathological graphs.
DEFAULT_MAX_LABEL = 20


def drnl_value(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized pairing function ``D(x, y)`` for non-negative distances.

    Inputs may be scalars or arrays. The function is symmetric in (x, y)
    and injective over unordered distance pairs on its effective domain
    ``x, y >= 1`` — distance 0 occurs only for the target nodes, which
    bypass the formula and receive the special label 1 — so distinct
    distance profiles get distinct labels.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if (x < 0).any() or (y < 0).any():
        raise ValueError("distances must be non-negative")
    d = x + y
    half = d // 2
    return 1 + np.minimum(x, y) + half * (half + d % 2 - 1)


def drnl_labels_from_distances(
    dist_a: np.ndarray, dist_b: np.ndarray, src, dst
) -> np.ndarray:
    """DRNL labels given precomputed target-removed distance arrays.

    ``src``/``dst`` may be scalars (one subgraph) or index arrays (every
    target of a packed batch at once — the bulk extraction path). Target
    nodes get label 1; nodes unreachable from *either* target get the
    null label 0; all other nodes get ``D(x, y)``.
    """
    labels = np.zeros(dist_a.shape[0], dtype=np.int64)
    reachable = (dist_a >= 0) & (dist_b >= 0)
    if reachable.any():
        labels[reachable] = drnl_value(dist_a[reachable], dist_b[reachable])
    labels[src] = 1
    labels[dst] = 1
    return labels


def drnl_one_hot(labels: np.ndarray, max_label: int = DEFAULT_MAX_LABEL) -> np.ndarray:
    """One-hot encode DRNL labels into ``max_label + 1`` buckets.

    Label ``i`` maps to column ``i``; labels above ``max_label`` are
    clamped into the top bucket so the feature width is fixed across
    subgraphs (a requirement for batching).
    """
    labels = np.asarray(labels, dtype=np.int64)
    clamped = np.minimum(labels, max_label)
    return one_hot(clamped, max_label + 1)
