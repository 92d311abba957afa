"""Weight-initialization schemes.

Glorot/Xavier uniform is the init everywhere, matching PyTorch
Geometric's GCN and GAT initializers; biases start at zero.
Each function *returns* a fresh ndarray rather than mutating, so callers
can route all randomness through one generator.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.nn.dtype import get_compute_dtype
from repro.utils.rng import RngLike, ensure_rng

__all__ = [
    "xavier_uniform",
    "zeros",
]


def _fans(shape: Sequence[int]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("shape must have at least one dimension")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[0] * receptive
    fan_out = shape[1] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: Sequence[int], rng: RngLike = None) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return ensure_rng(rng).uniform(-bound, bound, size=tuple(shape))


def zeros(shape: Sequence[int]) -> np.ndarray:
    """All-zero init (biases)."""
    return np.zeros(tuple(shape), dtype=get_compute_dtype())
