"""Hyperparameter auto-tuning: GP-EI Bayesian optimization (DeepHyper stand-in)."""

from repro.tuning.acquisition import expected_improvement
from repro.tuning.cbo import CBOTuner, Trial, TuneResult, execute_trial
from repro.tuning.evaluators import make_seal_evaluator
from repro.tuning.gp import GaussianProcess, matern52_kernel, rbf_kernel
from repro.tuning.random_search import random_search
from repro.tuning.space import (
    Choice,
    Integer,
    Real,
    SearchSpace,
    paper_table1_space,
)

__all__ = [
    "Real",
    "Integer",
    "Choice",
    "SearchSpace",
    "paper_table1_space",
    "GaussianProcess",
    "rbf_kernel",
    "matern52_kernel",
    "expected_improvement",
    "CBOTuner",
    "Trial",
    "TuneResult",
    "execute_trial",
    "make_seal_evaluator",
    "random_search",
]
