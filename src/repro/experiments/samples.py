"""Figures 7–9 regeneration: AUC vs number of training samples.

The paper trains both models for 10 epochs on increasing subsets of the
training links and reports held-out AUC — the data-efficiency claim
(§V-E): AM-DGCNN exceeds 0.9 AUC with half of PrimeKG's samples and
reaches 0.8 with ~2/3 of BioKG/WordNet samples, while vanilla DGCNN lags
at every budget. Fig 7 = PrimeKG, Fig 8 = OGBL-BioKG, Fig 9 = WordNet-18
(Cora has no samples figure in the paper), each with default/auto-tuned
panels.

Run full size:  ``python -m repro samples --dataset primekg`` (the same
flags as ``epochs``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.config import MODEL_NAMES, hyperparams_for
from repro.experiments.report import render_series
from repro.experiments.runner import ExperimentRunner

__all__ = ["SAMPLE_FRACTIONS", "run_sample_sweep", "format_sample_sweep"]

SAMPLE_FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def run_sample_sweep(
    runner: ExperimentRunner,
    dataset: str,
    settings: Sequence[str] = ("default", "tuned"),
    fractions: Sequence[float] = SAMPLE_FRACTIONS,
    num_targets: int = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Final AUC per train fraction: ``curves[setting][model]``."""
    curves: Dict[str, Dict[str, List[float]]] = {}
    for setting in settings:
        curves[setting] = {}
        for model in MODEL_NAMES:
            hp = hyperparams_for(dataset, model, setting)
            aucs = []
            for frac in fractions:
                result = runner.run(
                    dataset,
                    model,
                    hp,
                    train_fraction=frac,
                    num_targets=num_targets,
                    eval_each_epoch=False,
                )
                aucs.append(result.auc)
            curves[setting][model] = aucs
    return curves


def format_sample_sweep(
    dataset: str,
    curves: Dict[str, Dict[str, List[float]]],
    fractions: Sequence[float] = SAMPLE_FRACTIONS,
) -> str:
    """Render one figure's panels as series tables."""
    blocks = []
    for setting, per_model in curves.items():
        blocks.append(
            render_series(
                f"AUC vs training fraction — {dataset} ({setting} hyperparameters)",
                "train_fraction",
                list(fractions),
                {m: np.asarray(v) for m, v in per_model.items()},
            )
        )
    return "\n\n".join(blocks)


def run(args) -> int:
    runner = ExperimentRunner(scale=args.scale, seed=args.seed)
    curves = run_sample_sweep(runner, args.dataset, args.settings)
    print(format_sample_sweep(args.dataset, curves))
    return 0
