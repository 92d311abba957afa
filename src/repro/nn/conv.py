"""1-D convolution and pooling over sort-pooled node sequences.

DGCNN reads out a graph as a fixed-length sequence of sorted node
embeddings and applies two 1-D convolutions with a max-pool in between
(Zhang et al., AAAI'18). The first convolution has kernel size and stride
equal to the per-node feature width, so it acts as a learned per-node
projection; it runs fused with SortPooling, on the node rows before they
are pooled (:class:`repro.models.sort_pool.PooledProjection`), not through
:class:`Conv1d`. The second slides over the resulting node axis.

Both layers here read their windows as a strided view of the input, never
a gather. ``Conv1d`` copies the view into its im2col matrix at most once
(not at all with one channel and kernel == stride) and applies one matmul;
``MaxPool1d`` takes the maximum tap by tap over the view.
"""

from __future__ import annotations


import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, as_tensor
from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Conv1d", "MaxPool1d"]


def _windows(data: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Read-only ``(B, C, L_out, kernel)`` view of the windows of ``data``."""
    if kernel > data.shape[-1]:
        raise ValueError(
            f"kernel {kernel} with stride {stride} does not fit input length {data.shape[-1]}"
        )
    return sliding_window_view(data, kernel, axis=-1)[..., ::stride, :]


def _col2im(windows: np.ndarray, length: int, stride: int, dtype) -> np.ndarray:
    """Sum ``(B, C, L_out, K)`` window gradients back onto ``(B, C, length)``.

    The adjoint of the im2col window view, bit-identical to ``np.add.at`` of
    the windows into zeros. Taps ``[j*stride, (j+1)*stride)`` of every
    window land on distinct positions, so each such group is one strided
    slice add into a ``(rows, stride)`` view of the output. Visiting the
    groups from the last tap to the first adds each position's windows
    in window order — the order ``np.add.at`` visits them — and starting
    from zeros turns a lone ``-0.0`` into ``+0.0`` just as it does. With
    ``kernel <= stride`` (DGCNN's max-pool) there is one group: a single
    strided write.
    """
    b, c, l_out, kernel = windows.shape
    groups = -(-kernel // stride)
    rows = max(l_out + groups - 1, -(-length // stride))
    out = np.zeros((b, c, rows, stride), dtype=dtype)
    for j in reversed(range(groups)):
        taps = windows[..., j * stride : (j + 1) * stride]
        out[:, :, j : j + l_out, : taps.shape[-1]] += taps
    out = out.reshape(b, c, rows * stride)
    return out if rows * stride == length else np.ascontiguousarray(out[..., :length])


class Conv1d(Module):
    """1-D convolution over ``(batch, channels, length)`` tensors.

    Parameters
    ----------
    in_channels, out_channels: channel widths.
    kernel_size, stride: window geometry (no padding — DGCNN uses valid
        convolutions over an exactly sized sort-pooled sequence).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        rng: RngLike = None,
    ):
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("conv dimensions must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        gen = ensure_rng(rng)
        # Stored flattened (in_channels*kernel, out) so forward is one matmul.
        self.weight = Parameter(
            init.xavier_uniform((in_channels * kernel_size, out_channels), rng=gen)
        )
        self.bias = Parameter(init.zeros((out_channels,)))

    def out_length(self, length: int) -> int:
        """Output length for an input of ``length`` (valid convolution)."""
        return (length - self.kernel_size) // self.stride + 1

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError("Conv1d expects (batch, channels, length)")
        b, c, length = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        data = x.data  # (B, C, L)
        windows = _windows(data, self.kernel_size, self.stride)  # (B, C, L_out, K)
        l_out = windows.shape[2]
        # im2col: (B, L_out, C, K) -> (B*L_out, C*K); a view when C == 1 and K == stride.
        cols = windows.transpose(0, 2, 1, 3).reshape(b * l_out, c * self.kernel_size)

        def vjp_cols(g2: np.ndarray) -> np.ndarray:
            # g2: (B*L_out, C*K) -> scatter back into (B, C, L)
            g4 = g2.reshape(b, l_out, c, self.kernel_size).transpose(0, 2, 1, 3)
            return _col2im(g4, length, self.stride, data.dtype)

        cols_t = Tensor._from_op(cols, (x,), (vjp_cols,), "im2col")
        out = cols_t @ self.weight  # (B*L_out, out)
        out = out + self.bias
        return out.reshape(b, l_out, self.out_channels).transpose((0, 2, 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride})"
        )


class MaxPool1d(Module):
    """Non-overlapping 1-D max pooling over the length axis.

    A trailing remainder shorter than the kernel is dropped (matching
    PyTorch's default floor behaviour used by the DGCNN reference).
    """

    def __init__(self, kernel_size: int):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("pool dimensions must be positive")
        self.kernel_size = kernel_size

    def out_length(self, length: int) -> int:
        """Output length for an input of ``length``."""
        return length // self.kernel_size

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError("MaxPool1d expects (batch, channels, length)")
        length, kernel = x.shape[2], self.kernel_size
        windows = _windows(x.data, kernel, kernel)  # (B, C, L_out, K)
        # argmax's tap: the first maximum or NaN; a tie (-0.0 then +0.0) keeps the first.
        out = windows[..., 0]
        for k in range(1, kernel):
            tap = windows[..., k]
            out = np.where((tap > out) | (np.isnan(tap) & ~np.isnan(out)), tap, out)

        def vjp(g: np.ndarray) -> np.ndarray:
            # Route each window's gradient to its argmax tap, then fold
            # the windows back like Conv1d's im2col adjoint.
            arg = windows.argmax(axis=-1)  # (B, C, L_out)
            g4 = np.zeros(arg.shape + (kernel,), dtype=windows.dtype)
            np.put_along_axis(g4, arg[..., None], g[..., None], axis=-1)
            return _col2im(g4, length, kernel, windows.dtype)

        return Tensor._from_op(out, (x,), (vjp,), "maxpool1d")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MaxPool1d(kernel_size={self.kernel_size})"
