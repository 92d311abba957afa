"""PrimeKG-like dataset (paper §IV).

Schema mirrored from the real PrimeKG at reduced scale: 10 node types
(biological scales), 30 relations compressed into 2-d positive/negative
edge attributes (paper §III-B), drug–disease target links classified as
*indication* / *off-label use* / *contra-indication*.

Planted structure: two latent roles; target class is the unordered role
pair (both-0 → indication, mixed → off-label, both-1 → contra-indication).
Edge signs encode role agreement, so AM-DGCNN can denoise endpoint roles
from the neighborhood; the vanilla model gets partial signal from noisy
explicit role features and assortative topology — reproducing the paper's
0.99-vs-0.75 AUC gap in shape.

Per paper §III-A, enclosing subgraphs for PrimeKG use the **intersection**
of the k-hop neighborhoods.
"""

from __future__ import annotations

from repro.datasets.synthetic import PlantedKG, PlantedKGConfig, generate_planted_kg
from repro.seal.dataset import LinkTask
from repro.seal.features import FeatureConfig
from repro.utils.rng import RngLike

__all__ = ["primekg_config", "load_primekg_like", "PRIMEKG_CLASS_NAMES"]

PRIMEKG_CLASS_NAMES = ["indication", "off-label use", "contra-indication"]

# Node types: 0=drug, 1=disease, 2..9 = the other eight biological scales.
DRUG_TYPE, DISEASE_TYPE = 0, 1


def primekg_config(scale: float = 1.0, num_targets: int = 800) -> PlantedKGConfig:
    """Generator config; ``scale`` multiplies the node count."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return PlantedKGConfig(
        num_nodes=max(200, int(2000 * scale)),
        num_node_types=10,
        num_roles=2,
        num_relations=30,
        avg_degree=10.0,
        assortativity=0.3,  # partial topological signal for the GCN model
        edge_type_noise=0.08,
        edge_attr_mode="signed",  # the 30→2 positive/negative compression
        node_feature_mode="noisy_role",
        node_feature_noise=0.5,  # noisy explicit features: vanilla's signal
        num_targets=num_targets,
        target_type_pair=(DRUG_TYPE, DISEASE_TYPE),
        num_classes=3,
        class_rule="pair",  # R=2 → 3 unordered role pairs = 3 link classes
        label_noise=0.02,
        name="primekg-like",
    )


def load_primekg_like(
    scale: float = 1.0, num_targets: int = 800, rng: RngLike = 0
) -> LinkTask:
    """Build the PrimeKG-like :class:`~repro.seal.dataset.LinkTask`."""
    cfg = primekg_config(scale, num_targets)
    kg: PlantedKG = generate_planted_kg(cfg, rng)
    features = FeatureConfig(
        num_node_types=cfg.num_node_types,
        use_drnl=True,
        explicit_dim=cfg.num_roles,  # the noisy explicit role one-hot
    )
    return LinkTask(
        graph=kg.graph,
        pairs=kg.target_pairs,
        labels=kg.target_labels,
        num_classes=cfg.num_classes,
        feature_config=features,
        class_names=PRIMEKG_CLASS_NAMES,
        name="primekg",
        subgraph_mode="intersection",  # paper §III-A
        num_hops=2,
        max_subgraph_nodes=100,
        edge_attr_dim=cfg.edge_attr_dim,
    )
