"""Training callbacks — the ``TrainingLogger`` protocol and stock impls.

:func:`repro.seal.train` drives a list of callbacks instead of logging
inline, so exporters, progress bars, pruners and metric sinks all hook
the same three events:

- ``on_train_begin(config, result)`` — once, before the first epoch;
- ``on_epoch_end(epoch, result)`` — after each epoch's optimization
  (and evaluation, when enabled) with the in-progress
  :class:`~repro.seal.trainer.TrainResult`;
- ``on_train_end(result)`` — once, after the final epoch (or early
  stop), before best-epoch restoration.

Implementations may subclass :class:`TrainingCallback` (no-op defaults)
or duck-type the :class:`TrainingLogger` protocol directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.seal.trainer import TrainConfig, TrainResult

try:  # Protocol is typing-only; runtime_checkable enables isinstance checks
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py<3.8 fallback never hit (>=3.9)
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


__all__ = ["TrainingLogger", "TrainingCallback", "ConsoleLogger"]


@runtime_checkable
class TrainingLogger(Protocol):
    """Structural protocol every trainer callback satisfies."""

    def on_train_begin(self, config: "TrainConfig", result: "TrainResult") -> None: ...

    def on_epoch_end(self, epoch: int, result: "TrainResult") -> None: ...

    def on_train_end(self, result: "TrainResult") -> None: ...


class TrainingCallback:
    """Base class with no-op hooks; subclass and override what you need."""

    def on_train_begin(self, config: "TrainConfig", result: "TrainResult") -> None:
        pass

    def on_epoch_end(self, epoch: int, result: "TrainResult") -> None:
        pass

    def on_train_end(self, result: "TrainResult") -> None:
        pass


class ConsoleLogger(TrainingCallback):
    """Per-epoch progress lines — the trainer's former inline logging.

    By default emits through the ``repro.seal.trainer`` logger (visible
    after ``set_verbosity("INFO")``); pass ``emit=print`` — what
    ``train(verbose=True)`` does — to write to stdout unconditionally.
    """

    def __init__(self, emit: Optional[Callable[[str], Any]] = None) -> None:
        self._emit = emit if emit is not None else get_logger("seal.trainer").info

    def on_epoch_end(self, epoch: int, result: "TrainResult") -> None:
        loss = result.losses[-1] if result.losses else float("nan")
        if result.eval_auc:
            self._emit(
                f"epoch {epoch + 1} loss={loss:.4f} "
                f"auc={result.eval_auc[-1]:.4f} ap={result.eval_ap[-1]:.4f}"
            )
        else:
            self._emit(f"epoch {epoch + 1} loss={loss:.4f}")

    def on_train_end(self, result: "TrainResult") -> None:
        if result.best_epoch is not None and result.eval_auc:
            self._emit(
                f"done: best epoch {result.best_epoch + 1} "
                f"auc={result.eval_auc[result.best_epoch]:.4f}"
            )
