"""Reverse-mode automatic differentiation on NumPy arrays.

This is the tensor backend substituting for PyTorch in the reproduction
(the build environment has no GPU frameworks). It implements a classic
tape-based design:

* :class:`Tensor` wraps a float ndarray in the active compute dtype from
  :mod:`repro.nn.dtype` (float64 by default; integer arrays, for indices,
  are kept as-is).
* Every differentiable operation records its parent tensors and one
  vector-Jacobian-product (VJP) closure per parent.
* :meth:`Tensor.backward` topologically sorts the tape and accumulates
  gradients, exactly like ``torch.autograd``.

Only operations needed by the AM-DGCNN stack are provided, but each is a
general ndarray op with full broadcasting support; gradients for every op
are verified against finite differences in ``tests/nn/``.

Design notes: all VJPs are vectorized — no Python loops over elements.
Scatter-style backward passes run on the
:class:`~repro.nn.kernels.SegmentPlan` kernels or strided slice adds;
the one unbuffered ``np.add.at`` left is :meth:`Tensor.__getitem__`'s
VJP, whose arbitrary index has no plan to reuse. An op may also record
one node for a whole fused program with VJPs that share one backward
(see :mod:`repro.nn.attention`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.dtype import coerce as _coerce_dtype, get_compute_dtype

__all__ = ["Tensor", "as_tensor", "no_grad"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """Per-thread grad mode, like the dtype policy in :mod:`repro.nn.dtype`.

    A scoring thread inside :func:`no_grad` must not switch the tape off
    for a training thread; new threads start with grad mode on.
    """

    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape recording (evaluation mode).

    Grad mode is per thread: other threads keep recording.

    >>> with no_grad():
    ...     y = Tensor([1.0], requires_grad=True) * 2.0
    >>> y.requires_grad
    False
    """
    prev = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes.

    NumPy broadcasting aligns trailing axes; the gradient of a broadcast
    operand is the upstream gradient summed over every axis that was
    expanded (both prepended axes and size-1 axes).
    """
    if grad.shape == shape:
        return grad
    # Sum away prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# Output widths that are a multiple of this, and left operands of at
# least this many rows, are where BLAS GEMM rounds a row the same way
# whatever the other rows are (probed on OpenBLAS, fp64 and fp32).
_GEMM_BLOCK = 16


def _row_invariant_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for 2-D operands, each output row independent of the rest.

    The path depends only on ``b``'s shape, never on ``a``'s row count,
    so a row's bits do not change with how many rows ride along or where
    it sits. BLAS alone does not give that: an output width outside the
    GEMM kernel's column blocks, a single row (gemv) or a few rows at a
    large inner dimension each round differently. Narrow outputs are
    therefore reduced row by row; every other product is a GEMM whose
    left operand is zero-padded to at least ``_GEMM_BLOCK`` rows.
    """
    if b.shape[1] % _GEMM_BLOCK:
        return (a[:, :, None] * b).sum(1)
    m = a.shape[0]
    if m >= _GEMM_BLOCK:
        return a @ b
    padded = np.zeros((_GEMM_BLOCK, a.shape[1]), dtype=a.dtype)
    padded[:m] = a
    return (padded @ b)[:m]


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to an ndarray. Floating-point inputs are cast
        to the active compute dtype (``float64`` unless a
        :func:`repro.nn.dtype.compute_dtype` policy narrows it); integer and
        bool arrays are kept as-is (useful for indices) but cannot require
        gradients.
    requires_grad:
        Whether to build a tape through this tensor.

    Examples
    --------
    >>> x = Tensor([[1.0, 2.0]], requires_grad=True)
    >>> y = (x * x).sum()
    >>> y.backward()
    >>> x.grad.tolist()
    [[2.0, 4.0]]
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype.kind == "f":
            arr = _coerce_dtype(arr)
        elif arr.dtype.kind not in "iub":
            arr = arr.astype(get_compute_dtype())
        if requires_grad and arr.dtype.kind != "f":
            raise TypeError("only floating tensors can require gradients")
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad and _grad_mode.enabled)
        self._parents: Tuple[Tensor, ...] = ()
        self._vjps: Tuple[Optional[Callable[[np.ndarray], np.ndarray]], ...] = ()
        self._op: str = "leaf"

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        vjps: Sequence[Optional[Callable[[np.ndarray], np.ndarray]]],
        op: str,
    ) -> "Tensor":
        """Build a tape node. VJP ``i`` maps upstream grad → grad wrt parent ``i``."""
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._vjps = tuple(vjps)
            out._op = op
        return out

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # backward
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to ones (scalar outputs usually call it bare).
        Gradients accumulate into ``.grad`` of every reachable leaf/interior
        tensor with ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological order via iterative DFS (avoids recursion limits on
        # deep tapes, e.g. many-layer unrolled models).
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, vjp in zip(node._parents, node._vjps):
                    if vjp is None or not parent.requires_grad:
                        continue
                    contrib = vjp(g)
                    key = id(parent)
                    prev = grads.get(key)
                    grads[key] = contrib if prev is None else prev + contrib
            elif node.grad is None:
                node.grad = g
            else:
                node.grad = node.grad + g
        # Interior tensors that were targets of retained grads:
        # (we only keep leaf grads, matching torch defaults)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self.data + other.data
        return Tensor._from_op(
            out,
            (self, other),
            (
                lambda g, s=self.data.shape: _unbroadcast(g, s),
                lambda g, s=other.data.shape: _unbroadcast(g, s),
            ),
            "add",
        )

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self.data - other.data
        return Tensor._from_op(
            out,
            (self, other),
            (
                lambda g, s=self.data.shape: _unbroadcast(g, s),
                lambda g, s=other.data.shape: _unbroadcast(-g, s),
            ),
            "sub",
        )

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out = self.data * other.data
        a, b = self.data, other.data
        return Tensor._from_op(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g * b, a.shape),
                lambda g: _unbroadcast(g * a, b.shape),
            ),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out = a / b
        return Tensor._from_op(
            out,
            (self, other),
            (
                lambda g: _unbroadcast(g / b, a.shape),
                lambda g: _unbroadcast(-g * a / (b * b), b.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return Tensor._from_op(-self.data, (self,), (lambda g: -g,), "neg")

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        a = self.data
        out = a**exponent
        return Tensor._from_op(
            out,
            (self,),
            (lambda g: g * exponent * a ** (exponent - 1),),
            "pow",
        )

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        out = _row_invariant_matmul(a, b) if a.ndim == b.ndim == 2 else a @ b
        if a.ndim == 2 and b.ndim == 2:
            vjps = (lambda g: g @ b.T, lambda g: a.T @ g)
        elif a.ndim == 1 and b.ndim == 2:
            vjps = (lambda g: g @ b.T, lambda g: np.outer(a, g))
        elif a.ndim == 2 and b.ndim == 1:
            vjps = (lambda g: np.outer(g, b), lambda g: a.T @ g)
        elif a.ndim == 1 and b.ndim == 1:
            vjps = (lambda g: g * b, lambda g: g * a)
        else:
            # Batched matmul: contract over trailing dims, unbroadcast batch.
            vjps = (
                lambda g: _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
                lambda g: _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape),
            )
        return Tensor._from_op(out, (self, other), vjps, "matmul")

    # ------------------------------------------------------------------ #
    # elementwise math
    # ------------------------------------------------------------------ #
    def log(self) -> "Tensor":
        a = self.data
        return Tensor._from_op(np.log(a), (self,), (lambda g: g / a,), "log")

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return Tensor._from_op(out, (self,), (lambda g: g * (1.0 - out * out),), "tanh")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return Tensor._from_op(self.data * mask, (self,), (lambda g: g * mask,), "relu")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None) -> "Tensor":
        out = self.data.sum(axis=axis)
        shape = self.data.shape

        def vjp(g: np.ndarray) -> np.ndarray:
            if axis is None:
                return np.broadcast_to(g, shape).copy() if np.ndim(g) == 0 else np.full(shape, g)
            return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

        return Tensor._from_op(out, (self,), (vjp,), "sum")

    def mean(self, axis=None) -> "Tensor":
        n = self.data.size if axis is None else np.prod(
            [self.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis) * (1.0 / float(n))

    def max(self) -> "Tensor":
        out = self.data.max()
        a = self.data

        def vjp(g: np.ndarray) -> np.ndarray:
            mask = a == a.max()
            return (g * mask / mask.sum()).astype(a.dtype)

        return Tensor._from_op(out, (self,), (vjp,), "max")

    def min(self) -> "Tensor":
        return -((-self).max())

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out = self.data.reshape(shape)
        return Tensor._from_op(out, (self,), (lambda g: g.reshape(old),), "reshape")

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out = np.transpose(self.data, axes)
        if axes is None:
            inv = None
        else:
            inv = np.argsort(axes)
        return Tensor._from_op(out, (self,), (lambda g: np.transpose(g, inv),), "transpose")

    def __getitem__(self, idx) -> "Tensor":
        out = self.data[idx]
        shape = self.data.shape

        def vjp(g: np.ndarray) -> np.ndarray:
            full = np.zeros(shape, dtype=g.dtype)
            np.add.at(full, idx, g)
            return full

        return Tensor._from_op(out, (self,), (vjp,), "getitem")

    # ------------------------------------------------------------------ #
    # comparisons (non-differentiable, return ndarray masks)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= as_tensor(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= as_tensor(other).data


def as_tensor(value: ArrayLike) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``.

    Gradient splits the upstream gradient back into the operand slots.
    """
    tensors = [as_tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def vjp(g: np.ndarray) -> np.ndarray:
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            return g[tuple(slicer)]

        return vjp

    return Tensor._from_op(out, tensors, [make_vjp(i) for i in range(len(tensors))], "concat")


def stack(tensors: Iterable[Tensor]) -> Tensor:
    """Differentiable stack along a new leading axis."""
    tensors = [as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors])

    def make_vjp(i: int) -> Callable[[np.ndarray], np.ndarray]:
        def vjp(g: np.ndarray) -> np.ndarray:
            return np.take(g, i, axis=0)

        return vjp

    return Tensor._from_op(out, tensors, [make_vjp(i) for i in range(len(tensors))], "stack")
