"""Workspace arena: reusable ndarray buffers for the hot compute path.

Steady-state training allocates the same gradient and kernel-scratch
shapes every step — the tape frees a ``(E, H, C)`` buffer only to malloc
an identical one microseconds later. The arena short-circuits that churn
with a free-list pool keyed by ``(shape, dtype)``:

* :class:`Workspace` — the pool. :meth:`~Workspace.acquire` pops a
  recycled buffer (or allocates on miss), :meth:`~Workspace.release`
  returns one. Per-key free lists are capped so a transient odd shape
  cannot pin memory forever.
* **Gradient-buffer donation** — :meth:`Tensor.backward
  <repro.nn.tensor.Tensor.backward>` opens a :class:`GradArena` per
  pass. VJPs allocate their outputs through :func:`grad_buffer`; when a
  node retires (all its consumers' VJPs have run) its gradient buffer is
  donated back to the pool — unless a VJP returned a view of it (the
  alias escapes the tape, so the buffer must live on) or it became a
  leaf ``.grad`` (ownership transfers to the caller). After one warm
  backward the pool serves every subsequent pass allocation-free for
  the pooled shapes.
* **Kernel scratch** — the ``out=`` variants of the SegmentPlan kernels
  draw their internal temporaries from the same pool (see
  ``repro.nn.kernels``).

Reuse never changes numerics: a recycled buffer is always fully
overwritten (or explicitly zeroed) before use, so a backward drawing from
a warm pool is bit-identical to one on a cold (empty) pool. Hit/miss counts feed the
``nn.workspace.*`` observability counters and the profile CLI's
``dtype`` section.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs

__all__ = [
    "Workspace",
    "GradArena",
    "global_workspace",
    "grad_buffer",
    "current_arena",
    "open_arena",
    "close_arena",
]

_Key = Tuple[Tuple[int, ...], str]


class Workspace:
    """Free-list pool of ndarrays keyed by ``(shape, dtype)``.

    Buffers handed out by :meth:`acquire` are tracked by identity;
    :meth:`release` only ever pools arrays the workspace itself lent
    out, so foreign arrays (leaf grads, user data) can never be
    recycled by accident.
    """

    __slots__ = ("max_per_key", "_free", "_lent", "hits", "misses", "releases")

    def __init__(self, max_per_key: int = 8):
        self.max_per_key = int(max_per_key)
        self._free: Dict[_Key, List[np.ndarray]] = {}
        self._lent: Dict[int, _Key] = {}
        self.hits = 0
        self.misses = 0
        self.releases = 0

    @staticmethod
    def _key(shape, dtype) -> _Key:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def acquire(self, shape, dtype, *, zero: bool = False) -> np.ndarray:
        """A C-contiguous buffer of ``shape``/``dtype`` (recycled or fresh)."""
        key = self._key(shape, dtype)
        stack = self._free.get(key)
        if stack:
            buf = stack.pop()
            self.hits += 1
            obs.count("nn.workspace.hits")
            if zero:
                buf.fill(0)
        else:
            self.misses += 1
            obs.count("nn.workspace.misses")
            buf = np.zeros(key[0], dtype=dtype) if zero else np.empty(key[0], dtype=dtype)
        self._lent[id(buf)] = key
        return buf

    def release(self, arr: np.ndarray) -> bool:
        """Return a lent buffer to its free list; ``False`` for strangers."""
        key = self._lent.pop(id(arr), None)
        if key is None:
            return False
        stack = self._free.setdefault(key, [])
        if len(stack) < self.max_per_key:
            stack.append(arr)
            self.releases += 1
            return True
        return False

    def forget(self, arr: np.ndarray) -> None:
        """Drop lent-tracking for ``arr`` — its ownership escaped the pool."""
        self._lent.pop(id(arr), None)

    def owns(self, arr: np.ndarray) -> bool:
        return id(arr) in self._lent

    def clear(self) -> None:
        self._free.clear()
        self._lent.clear()

    @property
    def pooled_bytes(self) -> int:
        return sum(b.nbytes for stack in self._free.values() for b in stack)

    @property
    def pooled_buffers(self) -> int:
        return sum(len(stack) for stack in self._free.values())

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "releases": self.releases,
            "hit_rate": self.hits / total if total else 0.0,
            "pooled_buffers": self.pooled_buffers,
            "pooled_bytes": self.pooled_bytes,
        }


_POOL = Workspace()
_state = threading.local()


def global_workspace() -> Workspace:
    """The process-wide pool shared by the tape and the kernels."""
    return _POOL


class GradArena:
    """Per-backward ownership tracker over the shared pool.

    The arena remembers which buffers *this* backward allocated
    (``owned``). Only owned, root-owner (``base is None``) buffers are
    ever donated back; views and foreign arrays pass through untouched.
    """

    __slots__ = ("pool", "_owned")

    def __init__(self, pool: Workspace):
        self.pool = pool
        self._owned: set = set()

    def alloc(self, shape, dtype, *, zero: bool = False) -> np.ndarray:
        buf = self.pool.acquire(shape, dtype, zero=zero)
        self._owned.add(id(buf))
        return buf

    def owns(self, arr: np.ndarray) -> bool:
        return id(arr) in self._owned

    def retire(self, arr: np.ndarray) -> None:
        """Donate ``arr`` back if this backward owns it (no-op otherwise)."""
        if id(arr) in self._owned:
            self._owned.discard(id(arr))
            self.pool.release(arr)

    def disown(self, arr: np.ndarray) -> None:
        """Ownership escapes (leaf ``.grad`` / aliased): never pool it."""
        if id(arr) in self._owned:
            self._owned.discard(id(arr))
            self.pool.forget(arr)

    def close(self) -> None:
        """Forget whatever is still owned (e.g. a VJP raised mid-pass)."""
        for ident in self._owned:
            self.pool._lent.pop(ident, None)
        self._owned.clear()


def current_arena() -> Optional[GradArena]:
    """The arena of the backward pass running on this thread, if any."""
    return getattr(_state, "arena", None)


def open_arena() -> Optional[GradArena]:
    """Begin a donation scope for a backward pass.

    Backward passes do not nest on one thread, so a second open while
    one is active simply declines (returns None) and the outer arena
    keeps collecting.
    """
    if current_arena() is not None:
        return None
    arena = GradArena(_POOL)
    _state.arena = arena
    return arena


def close_arena(arena: Optional[GradArena]) -> None:
    if arena is None:
        return
    arena.close()
    _state.arena = None


def grad_buffer(shape, dtype, *, zero: bool = False) -> np.ndarray:
    """Allocate a VJP output buffer, pooled when a backward arena is open.

    Ops call this for gradient-shaped outputs they fully overwrite (or
    need zeroed). Outside a backward pass it is a plain allocation.
    """
    arena = current_arena()
    if arena is not None:
        return arena.alloc(shape, dtype, zero=zero)
    return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
