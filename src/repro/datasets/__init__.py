"""Synthetic stand-ins for the paper's four datasets (see DESIGN.md §2).

Each loader returns a :class:`repro.seal.LinkTask` whose schema matches
the real dataset (node/edge type counts, feature availability) with a
planted relational rule preserving the paper's qualitative results.
"""

from repro.datasets.biokg import BIOKG_CLASS_NAMES, biokg_config, load_biokg_like
from repro.datasets.cora import CORA_CLASS_NAMES, cora_config, load_cora_like
from repro.datasets.primekg import (
    PRIMEKG_CLASS_NAMES,
    load_primekg_like,
    primekg_config,
)
from repro.datasets.registry import DATASET_LOADERS, dataset_names, load_dataset
from repro.datasets.schema import PAPER_SCHEMAS, DatasetSchema
from repro.datasets.synthetic import (
    PlantedKG,
    PlantedKGConfig,
    ScaleTooSmallError,
    generate_planted_kg,
    role_pair_index,
)
from repro.datasets.wordnet import (
    WORDNET_CLASS_NAMES,
    load_wordnet_like,
    wordnet_config,
)

__all__ = [
    "PlantedKG",
    "PlantedKGConfig",
    "ScaleTooSmallError",
    "generate_planted_kg",
    "role_pair_index",
    "load_primekg_like",
    "primekg_config",
    "PRIMEKG_CLASS_NAMES",
    "load_biokg_like",
    "biokg_config",
    "BIOKG_CLASS_NAMES",
    "load_wordnet_like",
    "wordnet_config",
    "WORDNET_CLASS_NAMES",
    "load_cora_like",
    "cora_config",
    "CORA_CLASS_NAMES",
    "DATASET_LOADERS",
    "load_dataset",
    "dataset_names",
    "PAPER_SCHEMAS",
    "DatasetSchema",
]
