"""Name → loader registry for the four benchmark datasets."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.datasets.biokg import load_biokg_like
from repro.datasets.cora import load_cora_like
from repro.datasets.primekg import load_primekg_like
from repro.datasets.synthetic import ScaleTooSmallError
from repro.datasets.wordnet import load_wordnet_like
from repro.seal.dataset import LinkTask
from repro.utils.rng import RngLike

__all__ = ["DATASET_LOADERS", "load_dataset", "dataset_names"]

DATASET_LOADERS: Dict[str, Callable[..., LinkTask]] = {
    "primekg": load_primekg_like,
    "biokg": load_biokg_like,
    "wordnet": load_wordnet_like,
    "cora": load_cora_like,
}


def dataset_names() -> List[str]:
    """Registered dataset names, in the paper's Table II order."""
    return list(DATASET_LOADERS)


def load_dataset(name: str, *, scale: float = 1.0, rng: RngLike = 0, **kwargs) -> LinkTask:
    """Load a dataset by name (``primekg`` | ``biokg`` | ``wordnet`` | ``cora``).

    Raises :class:`~repro.datasets.synthetic.ScaleTooSmallError` (a
    ``ValueError``) naming the dataset, scale and target count when the
    graph at ``scale`` is too small for the requested target links.
    """
    try:
        loader = DATASET_LOADERS[name]
    except KeyError:
        raise KeyError(f"unknown dataset {name!r}; choose from {dataset_names()}") from None
    try:
        return loader(scale=scale, rng=rng, **kwargs)
    except ScaleTooSmallError as exc:
        raise ScaleTooSmallError(f"{name} at scale {scale:g} is too small: {exc}") from None
