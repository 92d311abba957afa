"""Figures 3–6 regeneration: AUC vs number of training epochs.

The paper measures AUC after 2, 4, …, 12 epochs for both models on each
dataset, under default (Cora-tuned) and per-dataset auto-tuned
hyperparameters. One training run with per-epoch evaluation yields the
whole curve — the sweep samples its epoch grid from the recorded history.

Figure map: Fig 3 = Cora (auto-tuned only), Fig 4 = PrimeKG,
Fig 5 = OGBL-BioKG, Fig 6 = WordNet-18 (each with (a) default and
(b) auto-tuned panels).

Run full size:  ``python -m repro epochs --dataset primekg``
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.config import MODEL_NAMES, hyperparams_for
from repro.experiments.report import render_series
from repro.experiments.runner import ExperimentRunner
from repro.utils.cli import add_dataset, add_scale, add_seed

__all__ = ["EPOCH_GRID", "run_epoch_sweep", "format_epoch_sweep"]

EPOCH_GRID = (2, 4, 6, 8, 10, 12)


def run_epoch_sweep(
    runner: ExperimentRunner,
    dataset: str,
    settings: Sequence[str] = ("default", "tuned"),
    epoch_grid: Sequence[int] = EPOCH_GRID,
    num_targets: int = None,
) -> Dict[str, Dict[str, List[float]]]:
    """AUC-at-epoch curves: ``curves[setting][model] = [auc@2, auc@4, ...]``.

    Trains once per (setting, model) to ``max(epoch_grid)`` epochs with
    per-epoch evaluation, then reads the grid points off the history.
    """
    max_epochs = max(epoch_grid)
    curves: Dict[str, Dict[str, List[float]]] = {}
    for setting in settings:
        curves[setting] = {}
        for model in MODEL_NAMES:
            hp = hyperparams_for(dataset, model, setting)
            result = runner.run(
                dataset, model, hp, epochs=max_epochs, num_targets=num_targets
            )
            trace = result.history.eval_auc  # AUC after epoch 1, 2, ...
            curves[setting][model] = [trace[e - 1] for e in epoch_grid]
    return curves


def format_epoch_sweep(
    dataset: str,
    curves: Dict[str, Dict[str, List[float]]],
    epoch_grid: Sequence[int] = EPOCH_GRID,
) -> str:
    """Render one figure's panels as series tables."""
    blocks = []
    for setting, per_model in curves.items():
        blocks.append(
            render_series(
                f"AUC vs epochs — {dataset} ({setting} hyperparameters)",
                "epochs",
                list(epoch_grid),
                {m: np.asarray(v) for m, v in per_model.items()},
            )
        )
    return "\n\n".join(blocks)


def add_arguments(parser) -> None:
    """The flags of both sweeps, ``epochs`` and ``samples``."""
    add_dataset(parser)
    add_scale(parser, 0.5)
    add_seed(parser)
    parser.add_argument(
        "--settings",
        nargs="*",
        default=["default", "tuned"],
        choices=["default", "tuned"],
    )


def run(args) -> int:
    runner = ExperimentRunner(scale=args.scale, seed=args.seed)
    curves = run_epoch_sweep(runner, args.dataset, args.settings)
    print(format_epoch_sweep(args.dataset, curves))
    return 0
