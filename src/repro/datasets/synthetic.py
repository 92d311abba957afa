"""Planted-structure knowledge-graph generator (core of all four datasets).

The paper evaluates on PrimeKG, OGBL-BioKG, WordNet-18 and Cora — none of
which are downloadable in this offline environment. Each is replaced by a
seeded synthetic graph matching its *schema* (node-type count, relation
count, node-feature availability, degree profile) with a **planted
relational rule** that preserves the paper's central causal structure:

* every node carries a latent *role* ``r(v) ∈ {0..R-1}`` (never exposed
  as a feature);
* the relation type of a background edge is drawn from the relation
  group of the unordered role pair ``{r(x), r(y)}`` (with noise), so a
  node's incident-edge types are a sufficient statistic for its role;
* the class of a target link is a function of the endpoint roles (with
  label noise).

A model that can read **edge attributes** (AM-DGCNN's GAT layers) can
recover endpoint roles from the enclosing subgraph and classify the
link; a model blind to them (vanilla DGCNN's GCN layers) sees only
topology and node features, whose informativeness is controlled
per-dataset:

* ``assortativity`` mixes in same-role edges, leaking role agreement
  into the topology (partial signal via DRNL for the vanilla model);
* ``node_feature_mode="noisy_role"`` leaks a corrupted role one-hot into
  explicit node features (PrimeKG's "richer explicit node information",
  paper §V-E);
* WordNet-18's configuration zeroes both knobs, which is why the vanilla
  model "performs like a random guesser" there (paper §V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.dtype import FLOAT64

from repro.graph.structure import Graph
from repro.utils.rng import RngLike, derive

__all__ = [
    "PlantedKGConfig",
    "PlantedKG",
    "ScaleTooSmallError",
    "generate_planted_kg",
    "role_pair_index",
]


class ScaleTooSmallError(ValueError):
    """The generated graph cannot supply the requested distinct target pairs."""


def role_pair_index(ri: np.ndarray, rj: np.ndarray, num_roles: int) -> np.ndarray:
    """Index of the unordered role pair ``{ri, rj}`` in upper-triangular order.

    Pairs enumerate as (0,0), (0,1), ..., (0,R-1), (1,1), (1,2), ... so
    there are ``R(R+1)/2`` groups. Vectorized over arrays.
    """
    ri = np.asarray(ri, dtype=np.int64)
    rj = np.asarray(rj, dtype=np.int64)
    lo = np.minimum(ri, rj)
    hi = np.maximum(ri, rj)
    # Offset of row `lo` in the upper-triangular enumeration.
    offset = lo * num_roles - lo * (lo - 1) // 2
    return offset + (hi - lo)


def num_role_pairs(num_roles: int) -> int:
    """Number of unordered role pairs ``R(R+1)/2``."""
    return num_roles * (num_roles + 1) // 2


@dataclass
class PlantedKGConfig:
    """Recipe for one synthetic knowledge graph.

    Attributes
    ----------
    num_nodes: node count.
    num_node_types: node-type vocabulary (one-hot fed to the models).
    num_roles: latent role vocabulary ``R``.
    num_relations: background relation vocabulary (paper Table II
        "#Edge types").
    avg_degree: mean background degree (controls subgraph richness).
    assortativity:
        Probability that a background edge is forced to connect two
        same-role nodes; the remainder connect uniform random pairs.
        0 → topology is role-blind (WordNet), higher → DRNL partially
        reveals role agreement (PrimeKG/BioKG/Cora).
    edge_type_noise:
        Probability a background edge's relation is drawn uniformly
        instead of from its role-pair group.
    edge_attr_mode:
        ``"onehot"`` — full relation one-hot of width ``num_relations``
        (BioKG/WordNet); ``"signed"`` — the paper's PrimeKG compression
        of 30 relations into a 2-d positive/negative one-hot;
        ``"none"`` — no edge attributes (Cora).
    node_feature_mode:
        ``"none"`` | ``"noisy_role"`` (role one-hot corrupted with
        probability ``node_feature_noise``) | ``"noisy_type"`` (same for
        node type — Cora's bag-of-words stand-in).
    node_feature_noise: corruption probability for explicit features.
    num_targets: number of labeled target links.
    target_type_pair:
        Optional ``(type_a, type_b)`` restriction on target endpoints
        (e.g. drug–disease in PrimeKG, protein–protein in BioKG).
    num_classes: target-label vocabulary.
    class_rule:
        ``"pair"`` — class = role-pair index (requires
        ``num_classes == R(R+1)/2``);
        ``"pair_mod"`` — class = role-pair index mod ``num_classes``;
        ``"relation"`` — class = a relation id drawn from the role-pair
        group exactly like background edges (WordNet-18: the 18 link
        classes are the relations themselves, so within-group refinement
        is irreducible noise and caps attainable accuracy);
        ``"existence"`` — binary link prediction: positives are real
        edges, negatives sampled non-edges (Cora).
    label_noise: probability a target label is resampled uniformly.
    degree_skew:
        Strength of a role-dependent degree bias: node ``v`` is sampled
        as an edge endpoint with weight ``1 + degree_skew·r(v)/(R-1)``.
        Roles then leave a *topological* footprint (hub-ness) that an
        edge-attribute-blind model can partially exploit — the realistic
        mid-range signal of OGBL-BioKG, where relation types correlate
        with protein hub-ness.
    """

    num_nodes: int = 1000
    num_node_types: int = 4
    num_roles: int = 3
    num_relations: int = 18
    avg_degree: float = 8.0
    assortativity: float = 0.0
    edge_type_noise: float = 0.1
    edge_attr_mode: str = "onehot"
    node_feature_mode: str = "none"
    node_feature_noise: float = 0.3
    num_targets: int = 600
    target_type_pair: Optional[Tuple[int, int]] = None
    num_classes: int = 6
    class_rule: str = "pair"
    label_noise: float = 0.05
    degree_skew: float = 0.0
    name: str = "planted-kg"

    def __post_init__(self) -> None:
        if self.num_roles < 2:
            raise ValueError("need at least two roles")
        if self.edge_attr_mode not in ("onehot", "signed", "none"):
            raise ValueError("edge_attr_mode must be onehot|signed|none")
        if self.node_feature_mode not in ("none", "noisy_role", "noisy_type"):
            raise ValueError("node_feature_mode must be none|noisy_role|noisy_type")
        if self.class_rule not in ("pair", "pair_mod", "relation", "existence"):
            raise ValueError("unknown class_rule")
        groups = num_role_pairs(self.num_roles)
        if self.class_rule == "pair" and self.num_classes != groups:
            raise ValueError(
                f"class_rule 'pair' needs num_classes == {groups} for {self.num_roles} roles"
            )
        if self.class_rule == "relation" and self.num_classes != self.num_relations:
            raise ValueError("class_rule 'relation' needs num_classes == num_relations")
        if self.num_relations < groups:
            raise ValueError("need at least one relation per role-pair group")
        if not 0 <= self.assortativity <= 1:
            raise ValueError("assortativity must be in [0, 1]")

    @property
    def edge_attr_dim(self) -> int:
        """Width of the models' edge-attribute input."""
        if self.edge_attr_mode == "onehot":
            return self.num_relations
        if self.edge_attr_mode == "signed":
            return 2
        return 0


@dataclass
class PlantedKG:
    """A generated graph plus the ground truth needed by the experiments."""

    graph: Graph
    roles: np.ndarray
    target_pairs: np.ndarray
    target_labels: np.ndarray
    config: PlantedKGConfig

    def stats(self) -> Dict[str, float]:
        """Summary statistics (feeds the Table II regeneration)."""
        return {
            "num_nodes": self.graph.num_nodes,
            "num_edges": self.graph.num_edges // 2,  # undirected count
            "num_node_types": self.graph.num_node_types,
            "num_edge_types": self.config.num_relations,
            "num_targets": len(self.target_labels),
            "num_classes": self.config.num_classes,
            "avg_degree": float(self.graph.degree().mean()),
        }


def _sample_background_edges(
    cfg: PlantedKGConfig, roles: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Undirected background edges with an assortativity mixture."""
    n = cfg.num_nodes
    m_total = int(cfg.avg_degree * n / 2)
    by_role = [np.nonzero(roles == r)[0] for r in range(cfg.num_roles)]
    # Role-dependent endpoint weights (degree skew); uniform when skew=0.
    weights_node = 1.0 + cfg.degree_skew * roles / max(cfg.num_roles - 1, 1)
    p_node = weights_node / weights_node.sum()
    edges_parts = []
    n_assort = int(m_total * cfg.assortativity)
    if n_assort > 0:
        # Same-role pairs: pick a role weighted by group size, two members.
        weights = np.array([max(len(b), 0) for b in by_role], dtype=FLOAT64)
        weights = np.where(weights >= 2, weights, 0.0)
        if weights.sum() > 0:
            weights /= weights.sum()
            picks = gen.choice(cfg.num_roles, size=n_assort, p=weights)
            us = np.empty(n_assort, dtype=np.int64)
            vs = np.empty(n_assort, dtype=np.int64)
            for r in range(cfg.num_roles):
                mask = picks == r
                cnt = int(mask.sum())
                if cnt == 0:
                    continue
                us[mask] = gen.choice(by_role[r], size=cnt)
                vs[mask] = gen.choice(by_role[r], size=cnt)
            edges_parts.append(np.stack([us, vs], axis=1))
    n_rand = m_total - n_assort
    if n_rand > 0:
        if cfg.degree_skew > 0:
            edges_parts.append(
                gen.choice(n, size=(n_rand, 2), p=p_node)
            )
        else:
            edges_parts.append(gen.integers(0, n, size=(n_rand, 2)))
    from repro.graph.generators import dedupe_edges

    return dedupe_edges(np.concatenate(edges_parts)) if edges_parts else np.empty((0, 2), np.int64)


def _relation_from_group(
    group: np.ndarray, cfg: PlantedKGConfig, gen: np.random.Generator
) -> np.ndarray:
    """Relation ids drawn from each edge's role-pair group, with noise."""
    groups = num_role_pairs(cfg.num_roles)
    per_group = cfg.num_relations // groups
    extra = cfg.num_relations - per_group * groups
    # Group g owns relations [g*per_group, (g+1)*per_group); the remainder
    # relations (if num_relations % groups != 0) are pure-noise ids.
    base = group * per_group
    rel = base + gen.integers(0, per_group, size=len(group))
    noisy = gen.random(len(group)) < cfg.edge_type_noise
    rel[noisy] = gen.integers(0, cfg.num_relations, size=int(noisy.sum()))
    del extra
    return rel


def _edge_attr_from_relation(
    rel: np.ndarray, agree: np.ndarray, cfg: PlantedKGConfig
) -> Optional[np.ndarray]:
    """Edge-attribute matrix per ``edge_attr_mode``."""
    if cfg.edge_attr_mode == "none":
        return None
    if cfg.edge_attr_mode == "onehot":
        out = np.zeros((len(rel), cfg.num_relations))
        out[np.arange(len(rel)), rel] = 1.0
        return out
    # "signed": the PrimeKG compression — positive vs negative interaction.
    out = np.zeros((len(rel), 2))
    out[np.arange(len(rel)), np.where(agree, 0, 1)] = 1.0
    return out


def _node_features(
    cfg: PlantedKGConfig,
    roles: np.ndarray,
    node_type: np.ndarray,
    gen: np.random.Generator,
) -> Optional[np.ndarray]:
    if cfg.node_feature_mode == "none":
        return None
    if cfg.node_feature_mode == "noisy_role":
        values, width = roles.copy(), cfg.num_roles
    else:  # "noisy_type"
        values, width = node_type.copy(), cfg.num_node_types
    corrupt = gen.random(cfg.num_nodes) < cfg.node_feature_noise
    values[corrupt] = gen.integers(0, width, size=int(corrupt.sum()))
    out = np.zeros((cfg.num_nodes, width))
    out[np.arange(cfg.num_nodes), values] = 1.0
    return out


def _sample_target_pairs(
    cfg: PlantedKGConfig,
    node_type: np.ndarray,
    gen: np.random.Generator,
    existing: set,
    num_targets: Optional[int] = None,
) -> np.ndarray:
    """Distinct target pairs honoring the optional type restriction."""
    if num_targets is None:
        num_targets = cfg.num_targets
    if cfg.target_type_pair is not None:
        ta, tb = cfg.target_type_pair
        pool_a = np.nonzero(node_type == ta)[0]
        pool_b = np.nonzero(node_type == tb)[0]
        if len(pool_a) == 0 or len(pool_b) == 0:
            raise ValueError("target_type_pair matches no nodes")
    else:
        pool_a = pool_b = np.arange(cfg.num_nodes)
    chosen: list = []
    seen = set()
    attempts = 0
    max_attempts = 50 * num_targets + 1000
    while len(chosen) < num_targets:
        attempts += 1
        if attempts > max_attempts:
            raise ScaleTooSmallError(
                f"its {cfg.num_nodes}-node graph cannot supply {num_targets} "
                "distinct target pairs"
            )
        u = int(pool_a[gen.integers(0, len(pool_a))])
        v = int(pool_b[gen.integers(0, len(pool_b))])
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen or key in existing:
            continue
        seen.add(key)
        chosen.append(key)
    return np.array(chosen, dtype=np.int64)


def generate_planted_kg(cfg: PlantedKGConfig, rng: RngLike = 0) -> PlantedKG:
    """Generate a :class:`PlantedKG` from ``cfg`` (deterministic per seed)."""
    gen_roles = derive(rng, cfg.name, "roles")
    gen_edges = derive(rng, cfg.name, "edges")
    gen_rel = derive(rng, cfg.name, "relations")
    gen_feat = derive(rng, cfg.name, "features")
    gen_targets = derive(rng, cfg.name, "targets")

    roles = gen_roles.integers(0, cfg.num_roles, size=cfg.num_nodes)
    node_type = gen_roles.integers(0, cfg.num_node_types, size=cfg.num_nodes)

    bg_edges = _sample_background_edges(cfg, roles, gen_edges)
    bg_group = role_pair_index(roles[bg_edges[:, 0]], roles[bg_edges[:, 1]], cfg.num_roles)
    bg_rel = _relation_from_group(bg_group, cfg, gen_rel)
    bg_agree = roles[bg_edges[:, 0]] == roles[bg_edges[:, 1]]

    existing = {(int(a), int(b)) for a, b in bg_edges}

    if cfg.class_rule == "existence":
        # Link prediction (Cora): positives are actual graph edges (each
        # removed from its own enclosing subgraph at extraction time);
        # negatives are sampled non-edges. No edges are inserted.
        m_pos = cfg.num_targets // 2
        if m_pos > len(bg_edges):
            raise ScaleTooSmallError(
                f"its {len(bg_edges)}-edge graph cannot supply {m_pos} positive target links"
            )
        pick = gen_targets.choice(len(bg_edges), size=m_pos, replace=False)
        pos_pairs = bg_edges[pick]
        neg_cfg_targets = cfg.num_targets - m_pos
        neg_pairs = _sample_target_pairs(
            cfg, node_type, gen_targets, existing, num_targets=neg_cfg_targets
        )
        pairs = np.concatenate([pos_pairs, neg_pairs])
        labels = np.concatenate(
            [np.ones(m_pos, dtype=np.int64), np.zeros(neg_cfg_targets, dtype=np.int64)]
        )
        perm = gen_targets.permutation(len(pairs))
        pairs, labels = pairs[perm], labels[perm]
        inserted = np.empty((0, 2), dtype=np.int64)
        ins_rel = np.empty(0, dtype=np.int64)
        ins_agree = np.empty(0, dtype=bool)
    else:
        pairs = _sample_target_pairs(cfg, node_type, gen_targets, existing)
        pair_group = role_pair_index(roles[pairs[:, 0]], roles[pairs[:, 1]], cfg.num_roles)
        if cfg.class_rule == "relation":
            labels = _relation_from_group(pair_group, cfg, gen_targets)
        else:
            labels = pair_group.copy()
            if cfg.class_rule == "pair_mod":
                labels = labels % cfg.num_classes
            noisy = gen_targets.random(len(labels)) < cfg.label_noise
            labels[noisy] = gen_targets.integers(0, cfg.num_classes, size=int(noisy.sum()))
        labels = labels.astype(np.int64)
        # Every classified link exists in the KG (its class is the
        # relationship being predicted); insert it as an edge whose
        # relation is drawn from its role-pair group, exactly like
        # background edges, so target links visible in *other* links'
        # subgraphs stay consistent with the planted rule.
        inserted = pairs
        if cfg.class_rule == "relation":
            ins_rel = labels.copy()  # the label IS the relation
        else:
            ins_rel = _relation_from_group(pair_group, cfg, gen_rel)
        ins_agree = roles[inserted[:, 0]] == roles[inserted[:, 1]]

    all_edges = np.concatenate([bg_edges, inserted]) if len(inserted) else bg_edges
    all_rel = np.concatenate([bg_rel, ins_rel]) if len(inserted) else bg_rel
    all_agree = np.concatenate([bg_agree, ins_agree]) if len(inserted) else bg_agree

    edge_attr = _edge_attr_from_relation(all_rel, all_agree, cfg)
    node_features = _node_features(cfg, roles, node_type, gen_feat)

    graph = Graph.from_undirected(
        cfg.num_nodes,
        all_edges,
        node_type=node_type,
        node_features=node_features,
        edge_type=all_rel,
        edge_attr=edge_attr,
    )
    return PlantedKG(
        graph=graph,
        roles=roles,
        target_pairs=pairs,
        target_labels=labels,
        config=cfg,
    )
