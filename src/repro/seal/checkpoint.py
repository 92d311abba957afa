"""Crash-safe checkpoint/resume for long-running training jobs.

The paper's evidence is multi-run — per-epoch AUC traces, training-
fraction sweeps, Bayesian-optimization sweeps over many full trainings —
exactly the workloads that die to a crash or a preempted machine. This
module makes every such run restartable: a :class:`Checkpoint` bundles
model weights, name-keyed optimizer state, the shuffle RNG stream state
and the in-progress :class:`~repro.seal.results.TrainResult`, and
:func:`save_checkpoint` writes it as a *single* ``.npz`` file atomically
(temporary sibling + ``os.replace``), so a reader can never observe a
torn checkpoint.

Resuming from the bundle is **bit-identical** to never having stopped:
because the optimizer moments, step count, parameter values and the
generator state driving batch shuffling are all restored exactly, the
resumed run produces the same losses, the same eval AUC/AP trace and the
same final weights as an uninterrupted run (property-tested in
``tests/seal/test_checkpoint_resume.py``).

Layout of one bundle: arrays under ``model:{name}``,
``optim:{slot}:{name}`` and (when best-epoch tracking is on)
``best:{name}``; everything scalar — epoch, RNG states, optimizer hyper
state, the result traces — rides in a single JSON document stored as the
``meta`` entry.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro import obs
from repro.seal.results import TrainResult
from repro.utils.logging import get_logger
from repro.utils.serialization import read_meta_npz, write_meta_npz

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointConfig",
    "Checkpoint",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
    "prune_checkpoints",
]

logger = get_logger("seal.checkpoint")

CHECKPOINT_VERSION = 1

PathLike = Union[str, Path]

_CKPT_RE = re.compile(r"^ckpt_(\d+)\.npz$")

#: bundles a directory keeps after each write, newest first
KEEP_LAST = 2

#: TrainResult fields serialized into / restored from the meta document.
_RESULT_FIELDS = (
    "losses",
    "eval_auc",
    "eval_ap",
    "epoch_seconds",
    "best_epoch",
    "phase_seconds",
    "epochs_run",
    "nonfinite_steps",
)


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a training run checkpoints itself.

    Parameters
    ----------
    dir: directory the ``ckpt_<epoch>.npz`` bundles live in (created on
        first write).
    every: write a bundle every this many completed epochs (the final
        epoch and a ``KeyboardInterrupt`` always write, regardless of
        cadence). After each write only the ``KEEP_LAST`` newest bundles
        are kept.
    resume: when a bundle already exists in ``dir``, restore it and
        continue from its epoch instead of starting over.
    """

    dir: PathLike
    every: int = 1
    resume: bool = True

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError("every must be >= 1")


@dataclass
class Checkpoint:
    """One resumable training state, captured at an epoch boundary.

    ``epoch`` counts *completed* epochs; resuming starts at epoch index
    ``epoch`` (0-based), i.e. the first epoch not yet run.
    """

    epoch: int
    model_state: Dict[str, np.ndarray]
    optimizer_state: Dict[str, Any]
    rng_states: Dict[str, Any] = field(default_factory=dict)
    result: TrainResult = field(default_factory=TrainResult)
    best_state: Optional[Dict[str, np.ndarray]] = None
    train_config: Optional[Dict[str, Any]] = None


def checkpoint_path(directory: PathLike, epoch: int) -> Path:
    """Canonical bundle path for ``epoch`` completed epochs."""
    return Path(directory) / f"ckpt_{epoch:06d}.npz"


def _result_to_meta(result: TrainResult) -> Dict[str, Any]:
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def _result_from_meta(meta: Dict[str, Any]) -> TrainResult:
    result = TrainResult()
    for name in _RESULT_FIELDS:
        if name in meta and meta[name] is not None:
            setattr(result, name, meta[name])
    return result


def save_checkpoint(path: PathLike, ckpt: Checkpoint) -> Path:
    """Write ``ckpt`` to ``path`` atomically; returns the final path.

    Instrumented via :mod:`repro.obs`: ``checkpoint.writes`` /
    ``checkpoint.bytes`` counters and a ``checkpoint.write_seconds``
    histogram feed the profile CLI's ``checkpoint`` section.
    """
    path = Path(path)
    arrays: Dict[str, np.ndarray] = {
        f"model:{name}": np.asarray(arr) for name, arr in ckpt.model_state.items()
    }
    optim_state = ckpt.optimizer_state.get("state", {})
    for name, slots in optim_state.items():
        for slot, arr in slots.items():
            arrays[f"optim:{slot}:{name}"] = np.asarray(arr)
    if ckpt.best_state is not None:
        for name, arr in ckpt.best_state.items():
            arrays[f"best:{name}"] = np.asarray(arr)
    meta = {
        "version": CHECKPOINT_VERSION,
        "epoch": int(ckpt.epoch),
        "optimizer": {
            "lr": ckpt.optimizer_state.get("lr"),
            "hyper": ckpt.optimizer_state.get("hyper", {}),
        },
        "rng_states": ckpt.rng_states,
        "result": _result_to_meta(ckpt.result),
        "has_best_state": ckpt.best_state is not None,
        "train_config": ckpt.train_config,
    }
    t0 = time.perf_counter()
    write_meta_npz(path, arrays, meta)
    elapsed = time.perf_counter() - t0
    size = path.stat().st_size
    obs.count("checkpoint.writes")
    obs.count("checkpoint.bytes", float(size))
    obs.observe("checkpoint.write_seconds", elapsed)
    logger.info(
        "wrote checkpoint %s (epoch %d, %d bytes, %.3fs)",
        path.name, ckpt.epoch, size, elapsed,
    )
    return path


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Read a bundle written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        arrays, meta = read_meta_npz(path)
    except ValueError:
        raise ValueError(f"{path} is not a checkpoint bundle (no meta entry)")
    version = meta.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version} unsupported "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    model_state: Dict[str, np.ndarray] = {}
    best_state: Dict[str, np.ndarray] = {}
    optim_arrays: Dict[str, Dict[str, np.ndarray]] = {}
    for key, arr in arrays.items():
        if key.startswith("model:"):
            model_state[key[len("model:"):]] = arr
        elif key.startswith("best:"):
            best_state[key[len("best:"):]] = arr
        elif key.startswith("optim:"):
            _, slot, name = key.split(":", 2)
            optim_arrays.setdefault(name, {})[slot] = arr
    optimizer_state = {
        "lr": meta["optimizer"]["lr"],
        "hyper": meta["optimizer"].get("hyper", {}),
        "state": optim_arrays,
    }
    return Checkpoint(
        epoch=int(meta["epoch"]),
        model_state=model_state,
        optimizer_state=optimizer_state,
        rng_states=meta.get("rng_states", {}),
        result=_result_from_meta(meta.get("result", {})),
        best_state=best_state if meta.get("has_best_state") else None,
        train_config=meta.get("train_config"),
    )


def list_checkpoints(directory: PathLike) -> List[Path]:
    """All bundles in ``directory``, oldest epoch first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for entry in directory.iterdir():
        m = _CKPT_RE.match(entry.name)
        if m:
            found.append((int(m.group(1)), entry))
    return [p for _, p in sorted(found)]


def latest_checkpoint(directory: PathLike) -> Optional[Path]:
    """The newest bundle in ``directory`` (``None`` when there is none)."""
    found = list_checkpoints(directory)
    return found[-1] if found else None


def prune_checkpoints(directory: PathLike) -> List[Path]:
    """Delete all but the ``KEEP_LAST`` newest bundles; returns removals."""
    stale = list_checkpoints(directory)[:-KEEP_LAST]
    for path in stale:
        path.unlink()
        obs.count("checkpoint.pruned")
    return stale
