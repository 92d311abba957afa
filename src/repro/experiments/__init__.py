"""Experiment drivers regenerating every table and figure of the paper.

* ``table3``    — Table III (AUC/AP, both models, four datasets)
* ``epochs``    — Figs 3–6 (AUC vs training epochs, default & tuned)
* ``samples``   — Figs 7–9 (AUC vs training-set size, default & tuned)
* ``ablations`` — A1–A3, A6, A7 ablation studies

Each is a ``python -m repro`` command (``python -m repro table3``); the
pytest benchmarks in ``benchmarks/`` run scaled-down versions and assert
the paper's qualitative orderings.
"""

from repro.experiments.ablations import ABLATIONS
from repro.experiments.config import (
    DEFAULT_HPARAMS,
    MODEL_NAMES,
    TUNED_HPARAMS,
    ModelHyperparams,
    build_model,
    hyperparams_for,
    train_config_for,
)
from repro.experiments.epochs import EPOCH_GRID, format_epoch_sweep, run_epoch_sweep
from repro.experiments.report import PAPER_TABLE3, render_series, render_table
from repro.experiments.runner import ExperimentRunner, RunResult
from repro.experiments.samples import SAMPLE_FRACTIONS, format_sample_sweep, run_sample_sweep
from repro.experiments.table3 import format_table3, run_table3

__all__ = [
    "ModelHyperparams",
    "DEFAULT_HPARAMS",
    "TUNED_HPARAMS",
    "MODEL_NAMES",
    "hyperparams_for",
    "build_model",
    "train_config_for",
    "ExperimentRunner",
    "RunResult",
    "run_table3",
    "format_table3",
    "EPOCH_GRID",
    "run_epoch_sweep",
    "format_epoch_sweep",
    "SAMPLE_FRACTIONS",
    "run_sample_sweep",
    "format_sample_sweep",
    "render_table",
    "render_series",
    "PAPER_TABLE3",
    "ABLATIONS",
]
