"""Module/Parameter system: a small mirror of ``torch.nn.Module``.

Modules register :class:`Parameter` attributes and child modules
automatically through ``__setattr__``; ``parameters()`` walks the tree,
``state_dict``/``load_state_dict`` snapshot weights, and ``train``/``eval``
toggle mode flags consumed by dropout layers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "ModuleList"]


class Parameter(Tensor):
    """A Tensor flagged as trainable (always ``requires_grad=True``)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for layers and models.

    Subclasses define parameters/children in ``__init__`` and implement
    ``forward``. Calling the module invokes ``forward``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- registration -------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Optional[Parameter]) -> None:
        """Explicit registration (used when params live in containers)."""
        if param is not None:
            self._parameters[name] = param
        object.__setattr__(self, name, param)

    # -- traversal ------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` over the whole subtree."""
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """All parameters in the subtree, in registration order."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants depth-first."""
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return int(sum(p.size for p in self.parameters()))

    # -- mode ------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for mod in self.modules():
            object.__setattr__(mod, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -- gradients -------------------------------------------------------- #
    def zero_grad(self) -> None:
        """Clear ``.grad`` on every parameter."""
        for p in self.parameters():
            p.grad = None

    # -- state ------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter's data keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            # Load into the parameter's current dtype: a float32 working
            # model stays float32 when fed a float64 checkpoint and vice
            # versa (the compute-dtype policy owns what the model runs at).
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy() if arr is state[name] else arr

    # -- call --------------------------------------------------------------- #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of submodules (registered for traversal)."""

    def __init__(self, modules: Optional[List[Module]] = None) -> None:
        super().__init__()
        self._items: List[Module] = []
        for mod in modules or []:
            self.append(mod)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __getitem__(self, idx: int) -> Module:
        return self._items[idx]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def forward(self, *args, **kwargs):  # pragma: no cover
        raise RuntimeError("ModuleList is a container; call its items")
