"""Adam and gradient-norm clipping.

Adam is the paper's (implicit) optimizer — the SEAL reference
implementation trains DGCNN with Adam — and the only one the
reproduction uses.

All updates are in-place on ``Parameter.data`` and fully vectorized.

**Mixed precision.** When a parameter runs reduced (``float32`` working
copies under a :func:`repro.nn.dtype.compute_dtype` policy), Adam keeps
a ``float64`` *master* copy per parameter in the state slots — the
NumPy analog of AMP master weights. Gradients are upcast to float64,
moments and the update run entirely in float64 against the master, and
the parameter receives a fresh reduced-precision cast of the master each
step. Masters serialize with the rest of the state, so checkpoints
round-trip the full-precision weights losslessly;
:meth:`Adam.sync_master_params` restores them into the model after
training. Float64 parameters take the exact pre-policy update path.

Per-parameter state (the Adam moments) is keyed by *parameter name*,
not ``id(p)``: id keys cannot be serialized into a checkpoint, and a
dict entry for a garbage-collected parameter could silently be adopted
by a new parameter allocated at the recycled address. Pass
``model.named_parameters()`` to key state by dotted path (the stable
spelling checkpoints use); plain parameter iterables get positional
names ``"p0"``, ``"p1"``, ... ``state_dict`` / ``load_state_dict``
round-trip the full update state bit-exactly, so a resumed run steps
identically to an uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple, Union

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam", "clip_grad_norm"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8

ParamsLike = Iterable[Union[Parameter, Tuple[str, Parameter]]]


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction and coupled L2 decay.

    ``params`` accepts either plain :class:`Parameter` objects or
    ``(name, parameter)`` pairs such as ``model.named_parameters()``.
    Names key the per-parameter state and must be unique.
    """

    def __init__(
        self,
        params: ParamsLike,
        lr: float = 1e-3,
        weight_decay: float = 0.0,
    ):
        self.params: List[Parameter] = []
        self._names: List[str] = []
        for item in params:
            if isinstance(item, tuple):
                name, p = item
                name = str(name)
            else:
                name, p = f"p{len(self.params)}", item
            if name in self._names:
                raise ValueError(f"duplicate parameter name {name!r}")
            self._names.append(name)
            self.params.append(p)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)
        self.weight_decay = weight_decay
        self._t = 0
        #: name → slot dict (``{"m", "v"}`` plus ``"master"``), lazily filled.
        self.state: Dict[str, Dict[str, np.ndarray]] = {}

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.grad = None

    # -- serialization ------------------------------------------------- #
    def state_dict(self) -> Dict[str, Any]:
        """Serializable snapshot: lr, step count, per-name slots.

        Arrays are copied, so the snapshot is immune to later steps.
        """
        return {
            "lr": self.lr,
            "hyper": {"t": self._t},
            "state": {
                name: {k: np.asarray(v).copy() for k, v in slots.items()}
                for name, slots in self.state.items()
            },
        }

    def load_state_dict(self, sd: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (names must match)."""
        unknown = set(sd["state"]) - set(self._names)
        if unknown:
            raise KeyError(f"optimizer state for unknown parameters: {sorted(unknown)}")
        self.lr = float(sd["lr"])
        self._t = int(sd.get("hyper", {}).get("t", 0))
        self.state = {
            name: {k: np.asarray(v, dtype=np.float64).copy() for k, v in slots.items()}
            for name, slots in sd["state"].items()
        }

    def _master(self, name: str, p: Parameter) -> np.ndarray:
        """The float64 master copy for a reduced-precision parameter.

        Created lazily from the current working copy the first time a
        reduced parameter steps, then owned by the state dict so
        checkpoints carry it.
        """
        slots = self.state.setdefault(name, {})
        master = slots.get("master")
        if master is None:
            master = slots["master"] = p.data.astype(np.float64)
        return master

    def sync_master_params(self) -> int:
        """Push float64 master weights back into their parameters.

        After mixed-precision training (or after loading a checkpoint
        taken mid-run) this restores each parameter from its lossless
        master — cast down if the parameter still runs reduced, copied
        bit-exactly if it is float64 again. Returns how many parameters
        were synced; float64-only runs have no masters and return 0.
        """
        synced = 0
        for name, p in zip(self._names, self.params):
            master = self.state.get(name, {}).get("master")
            if master is None:
                continue
            if p.data.dtype == np.float64:
                p.data = master.copy()
            else:
                p.data = master.astype(p.data.dtype)
            synced += 1
        return synced

    def step(self) -> None:
        self._t += 1
        b1, b2 = BETA1, BETA2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for name, p in zip(self._names, self.params):
            if p.grad is None:
                continue
            # Reduced-precision parameters update a float64 master copy
            # (grad upcast, moments in float64, working copy recast);
            # float64 parameters take the exact pre-policy path.
            reduced = p.data.dtype != np.float64
            target = self._master(name, p) if reduced else p.data
            g = p.grad.astype(np.float64) if reduced else p.grad
            if self.weight_decay:
                g = g + self.weight_decay * target  # coupled L2 (classic Adam)
            slots = self.state.setdefault(name, {})
            m = slots.get("m")
            v = slots.get("v")
            m = b1 * m + (1 - b1) * g if m is not None else (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g) if v is not None else (1 - b2) * (g * g)
            slots["m"], slots["v"] = m, v
            target -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            if reduced:
                p.data = target.astype(p.data.dtype)


def clip_grad_norm(params: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging exploding gradients).
    All-zero gradients return ``0.0`` without touching anything, and a
    non-finite norm is returned unscaled so callers can skip the step —
    scaling by ``max_norm / inf`` would silently zero every gradient.
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if np.isfinite(total) and total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            # Rebind, never scale in place: one VJP may hand the same array
            # to several leaves (``a + b``), or it may be the caller's own
            # ``backward(grad)`` array.
            p.grad = p.grad * scale
    return total
