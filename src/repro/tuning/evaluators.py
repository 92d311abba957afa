"""Ready-made tuner objectives over the SEAL training pipeline.

Every tuner in :mod:`repro.tuning` consumes a ``config -> score``
callable. :func:`make_seal_evaluator` builds the standard one — train a
fresh model on a fixed split, return held-out AUC — on top of the
:mod:`repro.data` loader, so tuning runs inherit the shared subgraph
store (extraction cost is paid once across all trials).
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.seal.evaluator import evaluate
from repro.seal.trainer import TrainConfig, train
from repro.tuning.space import Value

__all__ = ["make_seal_evaluator"]


def make_seal_evaluator(
    dataset,
    train_indices: Sequence[int],
    valid_indices: Sequence[int],
    build_model: Callable[[Dict[str, Value]], object],
    *,
    epochs: int = 5,
    batch_size: int = 16,
    rng=1,
) -> Callable[[Dict[str, Value]], float]:
    """Build the standard SEAL tuning objective: train, return val AUC.

    Parameters
    ----------
    dataset: a :class:`~repro.seal.SEALDataset` (its subgraph store is
        shared across trials — warm it once up front with
        :func:`repro.data.warm` to keep extraction out of trial timings).
    train_indices / valid_indices: fixed tuning split.
    build_model: ``config -> Module`` factory; called once per trial so
        every configuration starts from a fresh (reproducible) model.
    epochs / batch_size: reduced-scale training budget per trial.
    rng: seed shared by every trial (isolates the config's effect).
    """

    def evaluator(config: Dict[str, Value]) -> float:
        model = build_model(config)
        train(
            model,
            dataset,
            train_indices,
            TrainConfig(
                epochs=epochs,
                batch_size=batch_size,
                lr=float(config.get("lr", 1e-3)),
            ),
            rng=rng,
        )
        return evaluate(model, dataset, valid_indices).auc

    return evaluator
