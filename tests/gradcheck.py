"""Finite-difference gradient verification.

``gradcheck`` compares the analytic gradient of a scalar-valued function of
one or more tensors against central finite differences. Every autograd op
and layer of ``repro.nn`` and ``repro.models`` is validated through it —
correctness of the tape is what makes the NumPy backend a faithful
substitute for torch. Test tooling, so it lives beside the tests.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["numeric_grad", "gradcheck"]


def numeric_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central finite-difference gradient of ``fn(*inputs)`` wrt input ``wrt``.

    ``fn`` must return a scalar Tensor. Inputs are perturbed in place and
    restored, so tensors may be shared with other structures.
    """
    x = inputs[wrt]
    grad = np.zeros_like(x.data)
    flat = x.data.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(fn(*inputs).data)
        flat[i] = orig - eps
        f_minus = float(fn(*inputs).data)
        flat[i] = orig
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> bool:
    """Verify analytic vs numeric gradients for every grad-requiring input.

    Raises ``AssertionError`` with the offending input index and max error
    on mismatch; returns True on success (pytest-friendly).
    """
    inputs = list(inputs)
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    for t in inputs:
        if isinstance(t, Tensor):
            t.grad = None
    out.backward()
    for i, t in enumerate(inputs):
        if not (isinstance(t, Tensor) and t.requires_grad):
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = numeric_grad(fn, inputs, i, eps=eps)
        err = np.abs(analytic - numeric)
        tol = atol + rtol * np.abs(numeric)
        if not (err <= tol).all():
            worst = float(err.max())
            raise AssertionError(
                f"gradient mismatch on input {i}: max abs err {worst:.3e} "
                f"(analytic range [{analytic.min():.3e}, {analytic.max():.3e}])"
            )
    return True
