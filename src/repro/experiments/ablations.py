"""Drivers for the ablation studies (DESIGN.md A1–A3, A6, A7).

Each function mirrors its benchmark counterpart at a configurable scale
so the ablations can be reproduced standalone:

``python -m repro ablations --which subgraph_mode --scale 0.4``
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from repro.data import warm
from repro.datasets import load_dataset
from repro.experiments.config import DEFAULT_HPARAMS, build_model, train_config_for
from repro.models import AMDGCNN
from repro.seal import (
    SEALDataset,
    evaluate,
    train,
    train_test_split_indices,
)
from repro.utils.cli import add_scale, add_targets

__all__ = [
    "ablate_subgraph_mode",
    "ablate_node2vec",
    "ablate_drnl",
    "ablate_edge_in_message",
    "ablate_center_pool",
    "ABLATIONS",
]


#: training epochs of every ablation cell
_EPOCHS = 8


def _fit_am(task, **model_overrides) -> Dict[str, float]:
    ds = SEALDataset(task, rng=0)
    tr, te = train_test_split_indices(task.num_links, 0.25, labels=task.labels, rng=0)
    warm(ds)
    if model_overrides:
        model = AMDGCNN(
            ds.feature_width,
            task.num_classes,
            edge_dim=task.edge_attr_dim,
            heads=2,
            hidden_dim=DEFAULT_HPARAMS.hidden_dim,
            num_conv_layers=DEFAULT_HPARAMS.num_conv_layers,
            sort_k=DEFAULT_HPARAMS.sort_k,
            dropout=0.0,
            rng=1,
            **model_overrides,
        )
    else:
        model = build_model(
            "am_dgcnn", ds.feature_width, task.num_classes, task.edge_attr_dim,
            DEFAULT_HPARAMS, rng=1,
        )
    train(model, ds, tr, train_config_for(DEFAULT_HPARAMS, epochs=_EPOCHS), rng=1)
    res = evaluate(model, ds, te)
    sizes = ds.store.node_count
    return {"auc": res.auc, "ap": res.ap, "mean_subgraph_nodes": float(np.mean(sizes))}


def ablate_subgraph_mode(scale: float, num_targets: int) -> Dict[str, Dict[str, float]]:
    """A1 — union vs intersection extraction (paper §III-A)."""
    out = {}
    for mode in ("union", "intersection"):
        task = load_dataset("primekg", scale=scale, num_targets=num_targets, rng=0)
        task = dataclasses.replace(task, subgraph_mode=mode, max_subgraph_nodes=None)
        out[mode] = _fit_am(task)
    return out


def ablate_node2vec(scale: float, num_targets: int) -> Dict[str, Dict[str, float]]:
    """A2 — node2vec embeddings on/off (paper §III-B)."""
    from repro.embeddings import node2vec_embeddings

    out = {}
    task = load_dataset("primekg", scale=scale, num_targets=num_targets, rng=0)
    out["without"] = _fit_am(task)
    emb = node2vec_embeddings(task.graph, dim=16, num_walks=4, walk_length=12, epochs=2, rng=0)
    fc = dataclasses.replace(task.feature_config, embeddings=emb)
    out["with"] = _fit_am(dataclasses.replace(task, feature_config=fc))
    return out


def ablate_drnl(scale: float, num_targets: int) -> Dict[str, Dict[str, float]]:
    """A3 — DRNL structural labels on/off."""
    out = {}
    for use in (True, False):
        task = load_dataset("cora", scale=scale, num_targets=num_targets, rng=0)
        fc = dataclasses.replace(task.feature_config, use_drnl=use)
        out["with" if use else "without"] = _fit_am(
            dataclasses.replace(task, feature_config=fc)
        )
    return out


def ablate_edge_in_message(scale: float, num_targets: int) -> Dict[str, Dict[str, float]]:
    """A6 — edge attrs in attention only vs also in messages."""
    out = {}
    for flag in (True, False):
        task = load_dataset("wordnet", scale=scale, num_targets=num_targets, rng=0)
        out["message+attention" if flag else "attention-only"] = _fit_am(
            task, edge_in_message=flag
        )
    return out


def ablate_center_pool(scale: float, num_targets: int) -> Dict[str, Dict[str, float]]:
    """A7 — center pooling vs pure SortPooling readout."""
    out = {}
    for flag in (True, False):
        task = load_dataset("primekg", scale=scale, num_targets=num_targets, rng=0)
        out["center-pool" if flag else "sortpool-only"] = _fit_am(
            task, center_pool=flag
        )
    return out


ABLATIONS = {
    "subgraph_mode": ablate_subgraph_mode,
    "node2vec": ablate_node2vec,
    "drnl": ablate_drnl,
    "edge_in_message": ablate_edge_in_message,
    "center_pool": ablate_center_pool,
}


def add_arguments(parser) -> None:
    parser.add_argument("--which", choices=sorted(ABLATIONS), required=True)
    add_scale(parser, 0.3)
    add_targets(parser, 300)


def run(args) -> int:
    results = ABLATIONS[args.which](args.scale, args.num_targets)
    print(f"ablation: {args.which}")
    for variant, metrics in results.items():
        line = "  ".join(f"{k}={v:.3f}" for k, v in metrics.items())
        print(f"  {variant:<20} {line}")
    return 0
