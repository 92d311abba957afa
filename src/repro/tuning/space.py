"""Hyperparameter search-space definition (paper Table I).

A :class:`SearchSpace` is an ordered set of named dimensions. Each
dimension knows how to sample itself and how to encode a value into the
GP's continuous design space (log-scaled floats, normalized integers,
one-hot choices). The paper's space::

    lr      ∈ [1e-6, 1e-2]      (log-uniform)
    hidden  ∈ {16, 32, 64, 128} (choice)
    sort_k  ∈ {5..150}          (integer)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import RngLike, ensure_rng

__all__ = ["Real", "Integer", "Choice", "SearchSpace", "paper_table1_space"]

Value = Union[float, int]


@dataclass(frozen=True)
class Real:
    """Continuous dimension, optionally log-scaled."""

    name: str
    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"{self.name}: low must be < high")
        if self.log and self.low <= 0:
            raise ValueError(f"{self.name}: log scale requires positive bounds")

    @property
    def encoded_width(self) -> int:
        return 1

    def sample(self, gen: np.random.Generator) -> float:
        if self.log:
            return float(np.exp(gen.uniform(np.log(self.low), np.log(self.high))))
        return float(gen.uniform(self.low, self.high))

    def encode(self, value: float) -> np.ndarray:
        if self.log:
            lo, hi = np.log(self.low), np.log(self.high)
            return np.array([(np.log(value) - lo) / (hi - lo)])
        return np.array([(value - self.low) / (self.high - self.low)])


@dataclass(frozen=True)
class Integer:
    """Integer range dimension (inclusive bounds)."""

    name: str
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError(f"{self.name}: low must be < high")

    @property
    def encoded_width(self) -> int:
        return 1

    def sample(self, gen: np.random.Generator) -> int:
        return int(gen.integers(self.low, self.high + 1))

    def encode(self, value: int) -> np.ndarray:
        return np.array([(value - self.low) / (self.high - self.low)])


@dataclass(frozen=True)
class Choice:
    """Categorical dimension over a fixed option tuple (one-hot encoded)."""

    name: str
    options: Tuple[Value, ...]

    def __post_init__(self) -> None:
        if len(self.options) < 2:
            raise ValueError(f"{self.name}: need at least two options")

    @property
    def encoded_width(self) -> int:
        return len(self.options)

    def sample(self, gen: np.random.Generator) -> Value:
        return self.options[int(gen.integers(0, len(self.options)))]

    def encode(self, value: Value) -> np.ndarray:
        out = np.zeros(len(self.options))
        out[self.options.index(value)] = 1.0
        return out


Dimension = Union[Real, Integer, Choice]


class SearchSpace:
    """An ordered collection of dimensions with encode/sample."""

    def __init__(self, dimensions: Sequence[Dimension]):
        if not dimensions:
            raise ValueError("search space must have at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise ValueError("dimension names must be unique")
        self.dimensions: List[Dimension] = list(dimensions)

    @property
    def encoded_width(self) -> int:
        """Total width of the continuous encoding."""
        return sum(d.encoded_width for d in self.dimensions)

    def sample(self, gen_or_seed: RngLike = None) -> Dict[str, Value]:
        """One random configuration."""
        gen = ensure_rng(gen_or_seed)
        return {d.name: d.sample(gen) for d in self.dimensions}

    def encode(self, config: Dict[str, Value]) -> np.ndarray:
        """Encode a configuration into ``[0,1]^encoded_width``."""
        parts = [d.encode(config[d.name]) for d in self.dimensions]
        return np.concatenate(parts)

    def contains(self, config: Dict[str, Value]) -> bool:
        """Whether every value lies inside its dimension."""
        for d in self.dimensions:
            v = config.get(d.name)
            if v is None:
                return False
            if isinstance(d, Real) and not (d.low <= v <= d.high):
                return False
            if isinstance(d, Integer) and not (d.low <= v <= d.high and float(v).is_integer()):
                return False
            if isinstance(d, Choice) and v not in d.options:
                return False
        return True


def paper_table1_space() -> SearchSpace:
    """The exact hyperparameter space of paper Table I."""
    return SearchSpace(
        [
            Real("lr", 1e-6, 1e-2, log=True),
            Choice("hidden_dim", (16, 32, 64, 128)),
            Integer("sort_k", 5, 150),
        ]
    )
