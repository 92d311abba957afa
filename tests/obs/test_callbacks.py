"""TrainingLogger protocol and the stock callback implementations."""

import numpy as np

from repro.obs import ConsoleLogger, TrainingCallback, TrainingLogger
from repro.seal.results import TrainResult
from repro.seal.trainer import TrainConfig


def make_result(losses=(0.9, 0.5), aucs=(0.6, 0.8)):
    r = TrainResult()
    r.losses = list(losses)
    r.eval_auc = list(aucs)
    r.eval_ap = list(aucs)
    r.best_epoch = int(np.argmax(aucs)) if aucs else None
    r.epochs_run = len(losses)
    return r


class TestProtocol:
    def test_base_callback_satisfies_protocol(self):
        assert isinstance(TrainingCallback(), TrainingLogger)

    def test_duck_typed_class_satisfies_protocol(self):
        class Mine:
            def on_train_begin(self, config, result):
                pass

            def on_epoch_end(self, epoch, result):
                pass

            def on_train_end(self, result):
                pass

        assert isinstance(Mine(), TrainingLogger)

    def test_base_hooks_are_noops(self):
        cb = TrainingCallback()
        cb.on_train_begin(TrainConfig(), make_result())
        cb.on_epoch_end(0, make_result())
        cb.on_train_end(make_result())


class TestConsoleLogger:
    def test_epoch_line_with_eval(self):
        lines = []
        cb = ConsoleLogger(emit=lines.append)
        cb.on_epoch_end(1, make_result())
        assert lines == ["epoch 2 loss=0.5000 auc=0.8000 ap=0.8000"]

    def test_epoch_line_without_eval(self):
        lines = []
        cb = ConsoleLogger(emit=lines.append)
        cb.on_epoch_end(0, make_result(aucs=()))
        assert lines == ["epoch 1 loss=0.5000"]

    def test_train_end_reports_best(self):
        lines = []
        cb = ConsoleLogger(emit=lines.append)
        cb.on_train_end(make_result())
        assert lines == ["done: best epoch 2 auc=0.8000"]
