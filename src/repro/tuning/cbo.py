"""Centralized Bayesian Optimization — the DeepHyper stand-in (paper §III-D).

The paper auto-tunes AM-DGCNN/DGCNN hyperparameters with DeepHyper's
Centralized Bayesian Optimization search. This module implements the same
loop: a GP surrogate fit on (encoded config → score) observations, an
expected-improvement acquisition maximized over a random candidate pool,
and an initial random-exploration phase.

The evaluator is an arbitrary callable ``config -> score`` (higher is
better — e.g. held-out AUC), mirroring DeepHyper's evaluator-function
interface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.tuning.acquisition import expected_improvement
from repro.tuning.gp import GaussianProcess
from repro.tuning.space import SearchSpace, Value
from repro.utils.logging import get_logger
from repro.utils.rng import (
    RngLike,
    ensure_rng,
    generator_state,
    restore_generator_state,
)
from repro.utils.serialization import load_json, save_json

__all__ = ["Trial", "TuneResult", "CBOTuner", "execute_trial"]

logger = get_logger("tuning.cbo")


@dataclass
class Trial:
    """One evaluated configuration.

    ``seconds`` is the wall-clock cost of the evaluator call — the
    per-trial cost trace tuner-efficiency comparisons plot.
    """

    config: Dict[str, Value]
    score: float
    index: int
    seconds: float = 0.0


@dataclass
class TuneResult:
    """Outcome of a tuning run."""

    trials: List[Trial] = field(default_factory=list)

    @property
    def best(self) -> Trial:
        if not self.trials:
            raise RuntimeError("no trials were run")
        return max(self.trials, key=lambda t: t.score)

    @property
    def best_config(self) -> Dict[str, Value]:
        return self.best.config

    @property
    def best_score(self) -> float:
        return self.best.score

    def score_trace(self) -> np.ndarray:
        """Best-so-far score after each trial (monotone non-decreasing)."""
        return np.maximum.accumulate([t.score for t in self.trials])


def execute_trial(
    evaluator: Callable[[Dict[str, Value]], float],
    config: Dict[str, Value],
    index: int,
) -> Trial:
    """Run one tuner trial: time + trace the evaluator call.

    The single trial-execution path shared by every search strategy, so
    all tuners emit identical ``tuning.*`` counters and ``trial`` traces.
    """
    t0 = time.perf_counter()
    with obs.trace("trial"):
        score = float(evaluator(config))
    elapsed = time.perf_counter() - t0
    obs.count("tuning.trials")
    obs.observe("tuning.trial_seconds", elapsed)
    return Trial(config=config, score=score, index=index, seconds=elapsed)


class CBOTuner:
    """GP-EI Bayesian optimization over a :class:`SearchSpace`.

    Parameters
    ----------
    space: the search space (e.g. ``paper_table1_space()``).
    n_initial: random-exploration trials before the surrogate kicks in.
    candidate_pool: random candidates scored by EI per iteration.
    """

    def __init__(
        self,
        space: SearchSpace,
        n_initial: int = 5,
        candidate_pool: int = 256,
        rng: RngLike = 0,
    ):
        if n_initial < 1:
            raise ValueError("n_initial must be >= 1")
        if candidate_pool < 8:
            raise ValueError("candidate_pool must be >= 8")
        self.space = space
        self.n_initial = n_initial
        self.candidate_pool = candidate_pool
        self._gen = ensure_rng(rng)

    def suggest(self, trials: List[Trial]) -> Dict[str, Value]:
        """Next configuration to evaluate given past trials."""
        if len(trials) < self.n_initial:
            return self.space.sample(self._gen)
        x = np.stack([self.space.encode(t.config) for t in trials])
        y = np.array([t.score for t in trials])
        gp = GaussianProcess().fit(x, y)
        candidates = [self.space.sample(self._gen) for _ in range(self.candidate_pool)]
        enc = np.stack([self.space.encode(c) for c in candidates])
        mean, std = gp.predict(enc)
        ei = expected_improvement(mean, std, best=float(y.max()))
        return candidates[int(np.argmax(ei))]

    def run(
        self,
        evaluator: Callable[[Dict[str, Value]], float],
        n_trials: int,
        *,
        callback: Optional[Callable[[Trial], None]] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = True,
    ) -> TuneResult:
        """Run the full tuning loop for ``n_trials`` evaluations.

        With ``checkpoint_path`` the trial log (configs, scores, the
        suggestion stream's RNG state) is rewritten atomically after
        every trial, so a killed sweep rerun with the same arguments
        restarts from its completed trials — the surrogate refits on the
        restored history and the loop finishes the remaining budget —
        instead of re-evaluating everything.
        """
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        result = TuneResult()
        if checkpoint_path is not None:
            checkpoint_path = Path(checkpoint_path)
            if resume and checkpoint_path.exists():
                result.trials = self._restore_trials(checkpoint_path)
                obs.count("tuning.trials_restored", float(len(result.trials)))
                logger.info(
                    "resumed tuning from %s: %d/%d trials already done",
                    checkpoint_path, len(result.trials), n_trials,
                )
        for i in range(len(result.trials), n_trials):
            with obs.trace("suggest"):
                config = self.suggest(result.trials)
            trial = execute_trial(evaluator, config, i)
            result.trials.append(trial)
            if checkpoint_path is not None:
                self._write_trials(checkpoint_path, result.trials)
            logger.info(
                "trial %d score=%.4f %.2fs config=%s",
                i, trial.score, trial.seconds, config,
            )
            if callback is not None:
                callback(trial)
        return result

    # -- trial-log checkpointing -------------------------------------- #
    def _write_trials(self, path: Path, trials: List[Trial]) -> None:
        save_json(
            path,
            {
                "version": 1,
                "trials": [
                    {
                        "config": t.config,
                        "score": t.score,
                        "index": t.index,
                        "seconds": t.seconds,
                    }
                    for t in trials
                ],
                "rng_state": generator_state(self._gen),
            },
        )

    def _restore_trials(self, path: Path) -> List[Trial]:
        payload = load_json(path)
        if payload.get("version") != 1:
            raise ValueError(f"unsupported tuning checkpoint version in {path}")
        rng_state = payload.get("rng_state")
        if rng_state is not None:
            # Rewind the suggestion stream so resumed sampling continues
            # where the killed run left off (reproducible sweeps).
            restore_generator_state(self._gen, rng_state)
        return [
            Trial(
                config=dict(t["config"]),
                score=float(t["score"]),
                index=int(t["index"]),
                seconds=float(t.get("seconds", 0.0)),
            )
            for t in payload["trials"]
        ]
