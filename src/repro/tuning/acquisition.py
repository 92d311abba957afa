"""Acquisition functions for Bayesian optimization (maximization form)."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import FLOAT64
from scipy.stats import norm

__all__ = ["expected_improvement"]


def expected_improvement(
    mean: np.ndarray,
    std: np.ndarray,
    best: float,
    xi: float = 0.01,
) -> np.ndarray:
    """EI for maximization: ``E[max(f - best - xi, 0)]`` under N(mean, std²).

    Zero where ``std`` vanishes (already-observed points).
    """
    mean = np.asarray(mean, dtype=FLOAT64)
    std = np.asarray(std, dtype=FLOAT64)
    improve = mean - best - xi
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improve / std, 0.0)
    ei = improve * norm.cdf(z) + std * norm.pdf(z)
    return np.where(std > 1e-12, np.maximum(ei, 0.0), 0.0)
