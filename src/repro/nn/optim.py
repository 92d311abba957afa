"""Optimizers and learning-rate schedules.

Adam is the paper's (implicit) optimizer — the SEAL reference
implementation trains DGCNN with Adam — and is the default throughout the
reproduction. SGD with momentum is kept as a baseline, and AdamW gives
decoupled weight decay for the dense heads.

All updates are in-place on ``Parameter.data`` and fully vectorized.

**Mixed precision.** When a parameter runs reduced (``float32`` working
copies under a :func:`repro.nn.dtype.compute_dtype` policy), Adam/AdamW
keep a ``float64`` *master* copy per parameter in the state slots — the
NumPy analog of AMP master weights. Gradients are upcast to float64,
moments and the update run entirely in float64 against the master, and
the parameter receives a fresh reduced-precision cast of the master each
step. Masters serialize with the rest of the state, so checkpoints
round-trip the full-precision weights losslessly;
:meth:`Optimizer.sync_master_params` restores them into the model after
training. Float64 parameters take the exact pre-policy update path.

Per-parameter optimizer state (momentum velocities, Adam moments) is
keyed by *parameter name*, not ``id(p)``: id keys cannot be serialized
into a checkpoint, and a dict entry for a garbage-collected parameter
could silently be adopted by a new parameter allocated at the recycled
address. Pass ``model.named_parameters()`` to key state by dotted path
(the stable spelling checkpoints use); plain parameter iterables get
positional names ``"p0"``, ``"p1"``, ... ``state_dict`` /
``load_state_dict`` round-trip the full update state bit-exactly, so a
resumed run steps identically to an uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple, Union

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "AdamW", "StepLR", "clip_grad_norm"]

ParamsLike = Iterable[Union[Parameter, Tuple[str, Parameter]]]


class Optimizer:
    """Base optimizer over a list of (optionally named) parameters.

    ``params`` accepts either plain :class:`Parameter` objects or
    ``(name, parameter)`` pairs such as ``model.named_parameters()``.
    Names key the per-parameter state and must be unique.
    """

    def __init__(self, params: ParamsLike, lr: float):
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
        #: name → slot dict (e.g. ``{"m": ..., "v": ...}``), lazily filled.
        self.state: Dict[str, Dict[str, np.ndarray]] = {}

    def _named(self) -> Iterator[Tuple[str, Parameter]]:
        """``(name, parameter)`` pairs; appended params get fresh names."""
        while len(self._names) < len(self.params):
            i = len(self._names)
            name = f"p{i}"
            while name in self._names:
                i += 1
                name = f"p{i}"
            self._names.append(name)
        return zip(self._names, self.params)

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.params:
            p.grad = None

    # -- serialization ------------------------------------------------- #
    def _hyper(self) -> Dict[str, Any]:
        """Scalar update-rule state beyond ``lr`` (subclasses extend)."""
        return {}

    def _load_hyper(self, hyper: Dict[str, Any]) -> None:
        pass

    def state_dict(self) -> Dict[str, Any]:
        """Serializable snapshot: lr, scalar hyper-state, per-name slots.

        Arrays are copied, so the snapshot is immune to later steps.
        """
        return {
            "lr": self.lr,
            "hyper": self._hyper(),
            "state": {
                name: {k: np.asarray(v).copy() for k, v in slots.items()}
                for name, slots in self.state.items()
            },
        }

    def load_state_dict(self, sd: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (names must match)."""
        own = {name for name, _ in self._named()}
        unknown = set(sd["state"]) - own
        if unknown:
            raise KeyError(f"optimizer state for unknown parameters: {sorted(unknown)}")
        self.lr = float(sd["lr"])
        self._load_hyper(dict(sd.get("hyper", {})))
        self.state = {
            name: {k: np.asarray(v, dtype=np.float64).copy() for k, v in slots.items()}
            for name, slots in sd["state"].items()
        }

    def _master(self, name: str, p: Parameter) -> np.ndarray:
        """The float64 master copy for a reduced-precision parameter.

        Created lazily from the current working copy the first time a
        reduced parameter steps (or decays), then owned by the state
        dict so checkpoints carry it.
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
        for name, p in self._named():
            master = self.state.get(name, {}).get("master")
            if master is None:
                continue
            if p.data.dtype == np.float64:
                p.data = master.copy()
            else:
                p.data = master.astype(p.data.dtype)
            synced += 1
        return synced

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, params: ParamsLike, lr: float = 0.01, momentum: float = 0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum

    def step(self) -> None:
        for name, p in self._named():
            if p.grad is None:
                continue
            g = p.grad
            if self.momentum > 0:
                slots = self.state.setdefault(name, {})
                v = slots.get("velocity")
                v = self.momentum * v + g if v is not None else g.copy()
                slots["velocity"] = v
                g = v
            p.data -= self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: ParamsLike,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0

    def _hyper(self) -> Dict[str, Any]:
        return {"t": self._t}

    def _load_hyper(self, hyper: Dict[str, Any]) -> None:
        self._t = int(hyper.get("t", 0))

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for name, p in self._named():
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
            target -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if reduced:
                p.data = target.astype(p.data.dtype)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def step(self) -> None:
        if self.weight_decay:
            for name, p in self._named():
                if p.grad is None:
                    continue
                if p.data.dtype != np.float64:
                    # Decay the master — decaying the working copy would
                    # be overwritten by the master writeback in step().
                    master = self._master(name, p)
                    master -= self.lr * self.weight_decay * master
                else:
                    p.data -= self.lr * self.weight_decay * p.data
        wd, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step()
        finally:
            self.weight_decay = wd


class StepLR:
    """Multiply the optimizer's lr by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        """Advance one epoch; decays lr on multiples of ``step_size``."""
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma

    @property
    def last_lr(self) -> float:
        return self.optimizer.lr


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
