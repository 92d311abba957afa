"""Shared-memory parameter/gradient buffer for data-parallel training.

One float64 region shared by the trainer parent and its K shard
workers, laid out as::

    [ params (P) | grad slab 0 (P) | ... | grad slab K-1 (P)
      | scalars (K rows of [loss, count]) | control (2) ]

where ``P`` is the total parameter count of a fixed *spec* — an ordered
``(name, shape)`` list taken from ``model.named_parameters()``. The
parent publishes weights into the params section after each optimizer
step; worker ``rank`` writes its scaled shard loss and flattened
gradients into slab ``rank``; :meth:`ParameterBuffer.reduce_grads` sums
the slabs **in strict ascending rank order** (an explicit sequential
loop, never a pairwise tree), which is what makes K-process training
bit-identical to the in-process reference reduction.

:meth:`ParameterBuffer.local` builds the same layout over a plain
ndarray with no shared memory behind it — the in-process trainer mode
runs the identical put/reduce code path, so the two modes cannot
drift apart.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ParameterBuffer", "CMD_RUN", "CMD_ABORT"]

# Control words (stored as float64; exact for small ints).
CMD_RUN = 0
CMD_ABORT = 1

_CTRL_DOUBLES = 2  # [command, reserved]
_SCALAR_COLS = 2  # [loss, count]

Spec = List[Tuple[str, Tuple[int, ...]]]


def _normalize_spec(spec: Sequence[Tuple[str, Sequence[int]]]) -> Spec:
    out: Spec = []
    seen = set()
    for name, shape in spec:
        name = str(name)
        if name in seen:
            raise ValueError(f"duplicate parameter name {name!r}")
        seen.add(name)
        out.append((name, tuple(int(d) for d in shape)))
    if not out:
        raise ValueError("parameter spec is empty")
    return out


def _spec_sizes(spec: Spec) -> List[int]:
    return [int(np.prod(shape, dtype=np.int64)) if shape else 1 for _, shape in spec]


class ParameterBuffer:
    """Fixed-layout parameter + per-rank gradient exchange buffer."""

    def __init__(
        self,
        buf: np.ndarray,
        spec: Sequence[Tuple[str, Sequence[int]]],
        num_slabs: int,
        *,
        shm: Optional[shared_memory.SharedMemory] = None,
        owner: bool = False,
    ):
        self.spec = _normalize_spec(spec)
        self.num_slabs = int(num_slabs)
        if self.num_slabs < 1:
            raise ValueError("num_slabs must be >= 1")
        self._sizes = _spec_sizes(self.spec)
        self._offsets = np.concatenate([[0], np.cumsum(self._sizes)])[:-1]
        self.num_params = int(sum(self._sizes))
        expected = self.required_doubles(self.spec, self.num_slabs)
        if buf.size != expected:
            raise ValueError(
                f"buffer holds {buf.size} doubles, layout needs {expected}"
            )
        p, k = self.num_params, self.num_slabs
        self._params = buf[:p]
        self._grads = buf[p : p + k * p].reshape(k, p)
        scal = buf[p + k * p : p + k * p + k * _SCALAR_COLS]
        self._scalars = scal.reshape(k, _SCALAR_COLS)
        self._ctrl = buf[p + k * p + k * _SCALAR_COLS :]
        self._shm = shm
        self._owner = owner

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def required_doubles(spec: Sequence[Tuple[str, Sequence[int]]], num_slabs: int) -> int:
        sizes = _spec_sizes(_normalize_spec(spec))
        p = int(sum(sizes))
        return p * (int(num_slabs) + 1) + int(num_slabs) * _SCALAR_COLS + _CTRL_DOUBLES

    @classmethod
    def create(
        cls, spec: Sequence[Tuple[str, Sequence[int]]], num_slabs: int
    ) -> "ParameterBuffer":
        """Allocate a zeroed shared-memory buffer (parent side)."""
        doubles = cls.required_doubles(spec, num_slabs)
        shm = shared_memory.SharedMemory(create=True, size=doubles * 8)
        buf = np.ndarray(doubles, dtype=np.float64, buffer=shm.buf)
        buf[:] = 0.0
        return cls(buf, spec, num_slabs, shm=shm, owner=True)

    @classmethod
    def attach(cls, meta: Tuple[str, Spec, int]) -> "ParameterBuffer":
        """Map an existing buffer from its :attr:`meta` (worker side)."""
        name, spec, num_slabs = meta
        doubles = cls.required_doubles(spec, num_slabs)
        shm = shared_memory.SharedMemory(name=name)
        buf = np.ndarray(doubles, dtype=np.float64, buffer=shm.buf)
        return cls(buf, spec, num_slabs, shm=shm, owner=False)

    @classmethod
    def local(
        cls, spec: Sequence[Tuple[str, Sequence[int]]], num_slabs: int
    ) -> "ParameterBuffer":
        """Same layout over a plain ndarray (in-process reference mode)."""
        doubles = cls.required_doubles(spec, num_slabs)
        return cls(np.zeros(doubles, dtype=np.float64), spec, num_slabs)

    @property
    def meta(self) -> Tuple[str, Spec, int]:
        """Everything a worker needs to :meth:`attach` (pickles tiny)."""
        if self._shm is None:
            raise ValueError("local buffers cannot be attached across processes")
        return (self._shm.name, self.spec, self.num_slabs)

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    def put_params(self, named: Dict[str, np.ndarray]) -> None:
        """Publish a full set of parameter arrays (spec order)."""
        for (name, shape), size, off in zip(self.spec, self._sizes, self._offsets):
            arr = np.asarray(named[name], dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(
                    f"parameter {name!r} has shape {arr.shape}, spec says {shape}"
                )
            self._params[off : off + size] = arr.reshape(-1)

    def get_params(self) -> Dict[str, np.ndarray]:
        """Copy the published parameters out as name→array."""
        out: Dict[str, np.ndarray] = {}
        for (name, shape), size, off in zip(self.spec, self._sizes, self._offsets):
            out[name] = self._params[off : off + size].reshape(shape).copy()
        return out

    # ------------------------------------------------------------------ #
    # gradients + per-rank scalars
    # ------------------------------------------------------------------ #
    def put_grads(
        self,
        rank: int,
        grads: Optional[Dict[str, Optional[np.ndarray]]],
        loss: float,
        count: int,
    ) -> None:
        """Write rank's gradient slab and (scaled loss, link count).

        ``grads=None`` — an empty shard batch or a non-finite shard loss
        — zeroes the whole slab, so the ordered reduction still adds the
        slab (adding zeros keeps the float op sequence identical between
        in-process and multi-process runs).
        """
        slab = self._grads[rank]
        if grads is None:
            slab[:] = 0.0
        else:
            for (name, shape), size, off in zip(self.spec, self._sizes, self._offsets):
                g = grads.get(name)
                if g is None:
                    slab[off : off + size] = 0.0
                else:
                    slab[off : off + size] = np.asarray(
                        g, dtype=np.float64
                    ).reshape(-1)
        self._scalars[rank, 0] = float(loss)
        self._scalars[rank, 1] = float(count)

    def reduce_grads(self) -> Dict[str, np.ndarray]:
        """Sum all slabs in ascending rank order; split per parameter.

        The accumulation is an explicit sequential loop — slab 0 plus
        slab 1 plus slab 2 … — never a pairwise/tree sum, so the result
        is a deterministic function of the slab contents alone.
        """
        acc = self._grads[0].copy()
        for rank in range(1, self.num_slabs):
            acc += self._grads[rank]
        out: Dict[str, np.ndarray] = {}
        for (name, shape), size, off in zip(self.spec, self._sizes, self._offsets):
            out[name] = acc[off : off + size].reshape(shape)
        return out

    def reduce_loss(self) -> float:
        """Ordered sum of the per-rank scaled losses."""
        total = 0.0
        for rank in range(self.num_slabs):
            total += float(self._scalars[rank, 0])
        return total

    def counts(self) -> np.ndarray:
        """Per-rank link counts from the last step (copy)."""
        return self._scalars[:, 1].astype(np.int64)

    # ------------------------------------------------------------------ #
    # control word
    # ------------------------------------------------------------------ #
    def set_command(self, command: int) -> None:
        self._ctrl[0] = float(command)

    def get_command(self) -> int:
        return int(self._ctrl[0])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drop array views and release the mapping (owner also unlinks)."""
        self._params = self._grads = self._scalars = self._ctrl = None
        if self._shm is not None:
            shm, self._shm = self._shm, None
            shm.close()
            if self._owner:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "ParameterBuffer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
