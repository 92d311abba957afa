"""Fault injection for training tests: NaN logits and mid-run kills.

:class:`PoisonModel` wraps a model and injects the faults from inside
its training forward, so the trainer sees them exactly where a real
fault would strike. :func:`kill_at` turns "killed after N epochs" into
the forward call to interrupt.
"""

import numpy as np

from repro.nn.module import Module


def kill_at(kill_after, n_train, batch_size):
    """The training forward call that starts epoch ``kill_after + 1`` of a
    run over ``n_train`` links in batches of ``batch_size``."""
    return kill_after * -(-n_train // batch_size) + 1


class PoisonModel(Module):
    """Wrapper that NaNs the logits of one chosen training forward, or
    raises ``KeyboardInterrupt`` at the start of training forward
    ``kill_at``.

    ``poison_at=None`` never poisons — the resumed half of a killed run
    uses it, since the poisoned step lives before the kill point and is
    carried by the checkpoint, not re-run.
    """

    def __init__(self, inner: Module, poison_at=None, kill_at=None) -> None:
        super().__init__()
        self.inner = inner
        self.poison_at = poison_at
        self.kill_at = kill_at
        self.calls = 0

    def forward(self, batch):
        if self.training:
            self.calls += 1
            if self.calls == self.kill_at:
                raise KeyboardInterrupt
        out = self.inner(batch)
        if self.training:
            if self.poison_at is not None and (
                self.poison_at == "always" or self.calls == self.poison_at
            ):
                out = out * np.nan
        return out
