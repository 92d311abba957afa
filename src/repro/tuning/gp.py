"""Gaussian-process regression surrogate for Bayesian optimization.

A compact, numerically careful GP with a Matérn-5/2 kernel on the
unit-cube encoded design space, exact Cholesky inference and per-fit
hyperparameter selection by marginal-likelihood grid search over length
scales. Sufficient for the ≤ a-few-hundred-point fits of the CBO loop
(the DeepHyper stand-in — see DESIGN.md §2).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.dtype import FLOAT64
from scipy.linalg import cho_factor, cho_solve

__all__ = ["matern52_kernel", "GaussianProcess"]

#: observation noise variance on the kernel diagonal (also a jitter guard)
NOISE = 1e-4
#: length scales the fit chooses among by marginal likelihood
LENGTH_SCALES = (0.1, 0.2, 0.3, 0.5, 1.0)


def _sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances ``(len(a), len(b))``."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def matern52_kernel(a: np.ndarray, b: np.ndarray, length_scale: float = 0.3) -> np.ndarray:
    """Matérn-5/2 kernel (the BO default — twice-differentiable, not overly smooth)."""
    d = np.sqrt(_sqdist(a, b)) / length_scale
    s5 = np.sqrt(5.0)
    return (1.0 + s5 * d + 5.0 * d * d / 3.0) * np.exp(-s5 * d)


class GaussianProcess:
    """Exact GP regression with observation noise ``NOISE``; the kernel's
    length scale is the one of ``LENGTH_SCALES`` with the highest
    marginal likelihood at fit time."""

    def __init__(self):
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol = None
        self._mean = 0.0
        self._std = 1.0
        self.length_scale = LENGTH_SCALES[0]

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Fit on observations (targets standardized internally)."""
        x = np.atleast_2d(np.asarray(x, dtype=FLOAT64))
        y = np.asarray(y, dtype=FLOAT64).ravel()
        if len(x) != len(y):
            raise ValueError("x and y must have equal length")
        if len(x) == 0:
            raise ValueError("cannot fit on zero observations")
        self._mean = float(y.mean())
        self._std = float(y.std()) or 1.0
        yn = (y - self._mean) / self._std

        best = (-np.inf, None, None, None)
        for ls in LENGTH_SCALES:
            k = matern52_kernel(x, x, ls) + NOISE * np.eye(len(x))
            try:
                chol = cho_factor(k, lower=True)
            except np.linalg.LinAlgError:  # pragma: no cover - jitter guard
                continue
            alpha = cho_solve(chol, yn)
            logdet = 2.0 * np.log(np.diag(chol[0])).sum()
            mll = -0.5 * float(yn @ alpha) - 0.5 * logdet - 0.5 * len(x) * np.log(2 * np.pi)
            if mll > best[0]:
                best = (mll, ls, chol, alpha)
        if best[1] is None:  # pragma: no cover - all factorizations failed
            raise np.linalg.LinAlgError("GP fit failed for every length scale")
        _, self.length_scale, self._chol, self._alpha = best
        self._x = x
        return self

    def predict(self, x_new: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new``."""
        if self._x is None:
            raise RuntimeError("GP is not fitted")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=FLOAT64))
        k_star = matern52_kernel(x_new, self._x, self.length_scale)
        mean = k_star @ self._alpha
        v = cho_solve(self._chol, k_star.T)
        prior_var = np.diag(matern52_kernel(x_new, x_new, self.length_scale))
        var = np.maximum(prior_var - (k_star * v.T).sum(axis=1), 1e-12)
        return self._mean + self._std * mean, self._std * np.sqrt(var)
