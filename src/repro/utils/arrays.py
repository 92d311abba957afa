"""Small array helpers shared by the graph and stream hot paths."""

from __future__ import annotations

import numpy as np

__all__ = ["sorted_unique"]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of ``values`` (flattened), like ``np.unique``.

    ``np.sort`` plus a neighbour mask. NumPy 2.x answers a values-only
    ``np.unique`` from a hash table and sorts afterwards, which is over
    an order of magnitude slower than this on integer keys.
    """
    s = np.sort(np.asarray(values).reshape(-1))
    if s.size < 2:
        return s
    keep = np.empty(s.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]
