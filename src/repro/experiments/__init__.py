"""Experiment drivers regenerating every table and figure of the paper.

* ``table3``    — Table III (AUC/AP, both models, four datasets)
* ``epochs``    — Figs 3–6 (AUC vs training epochs, default & tuned)
* ``samples``   — Figs 7–9 (AUC vs training-set size, default & tuned)
* ``ablations`` — A1–A3, A6, A7 ablation studies

Each module has a CLI (``python -m repro.experiments.<name>``); the
pytest benchmarks in ``benchmarks/`` run scaled-down versions and assert
the paper's qualitative orderings.

The re-exports below load their module on first access (PEP 562), so
importing the package imports none of the CLI modules and ``python -m``
runs each of them exactly once.
"""

from importlib import import_module

#: public name -> submodule defining it
_EXPORTS = {
    "ModelHyperparams": "config",
    "DEFAULT_HPARAMS": "config",
    "TUNED_HPARAMS": "config",
    "MODEL_NAMES": "config",
    "hyperparams_for": "config",
    "build_model": "config",
    "train_config_for": "config",
    "ExperimentRunner": "runner",
    "RunResult": "runner",
    "run_table3": "table3",
    "format_table3": "table3",
    "EPOCH_GRID": "epochs",
    "run_epoch_sweep": "epochs",
    "format_epoch_sweep": "epochs",
    "SAMPLE_FRACTIONS": "samples",
    "run_sample_sweep": "samples",
    "format_sample_sweep": "samples",
    "render_table": "report",
    "render_series": "report",
    "PAPER_TABLE3": "report",
    "ABLATIONS": "ablations",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
