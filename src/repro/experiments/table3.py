"""Table III regeneration: AUC and AP of both models on all four datasets.

Runs each (dataset, model) pair with the per-dataset auto-tuned
hyperparameters (the paper's second experiment regime, which Table III
reports) and prints the table next to the paper's numbers.

Run full size:  ``python -m repro table3``
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.datasets.registry import dataset_names
from repro.experiments.config import MODEL_NAMES, hyperparams_for
from repro.experiments.report import PAPER_TABLE3, render_table
from repro.experiments.runner import ExperimentRunner, RunResult
from repro.utils.cli import add_scale, add_seed

__all__ = ["run_table3", "format_table3"]


def run_table3(
    runner: ExperimentRunner,
    datasets: Sequence[str] = None,
    setting: str = "tuned",
) -> Dict[str, Dict[str, RunResult]]:
    """All Table III cells; returns ``results[dataset][model]``."""
    results: Dict[str, Dict[str, RunResult]] = {}
    for ds in datasets or dataset_names():
        results[ds] = {}
        for model in MODEL_NAMES:
            hp = hyperparams_for(ds, model, setting)
            results[ds][model] = runner.run(ds, model, hp, eval_each_epoch=False)
    return results


def format_table3(results: Dict[str, Dict[str, RunResult]]) -> str:
    """Render measured-vs-paper Table III."""
    headers = [
        "Dataset",
        "AM-DGCNN AUC",
        "AM AP",
        "Vanilla AUC",
        "Vanilla AP",
        "paper AM AUC/AP",
        "paper Vanilla AUC/AP",
    ]
    rows: List[List[object]] = []
    for ds, per_model in results.items():
        am = per_model["am_dgcnn"]
        va = per_model["vanilla_dgcnn"]
        paper = PAPER_TABLE3.get(ds, {})
        pa = paper.get("am_dgcnn", {})
        pv = paper.get("vanilla_dgcnn", {})
        rows.append(
            [
                ds,
                am.auc,
                am.ap,
                va.auc,
                va.ap,
                f"{pa.get('auc', float('nan')):.2f}/{pa.get('ap', float('nan')):.2f}",
                f"{pv.get('auc', float('nan')):.2f}/{pv.get('ap', float('nan')):.2f}",
            ]
        )
    return render_table(headers, rows)


def add_arguments(parser) -> None:
    add_scale(parser, 0.5)
    add_seed(parser)
    parser.add_argument("--datasets", nargs="*", default=None, choices=dataset_names())
    parser.add_argument("--setting", choices=["default", "tuned"], default="tuned")


def run(args) -> int:
    runner = ExperimentRunner(scale=args.scale, seed=args.seed)
    print(format_table3(run_table3(runner, args.datasets, args.setting)))
    return 0
