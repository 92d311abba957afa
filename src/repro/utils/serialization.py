"""Save/load helpers for model parameters and experiment results.

Model parameter blobs are stored as ``.npz`` archives keyed by parameter
name; experiment results (tables, curves) as JSON with NumPy scalars
coerced to native Python types so files stay tool-friendly.

:func:`write_meta_npz` / :func:`read_meta_npz` hold the one-file
"arrays plus a JSON ``meta`` entry" format that training checkpoints,
model bundles and saved tasks share.

Two robustness guarantees back the checkpoint/resume layer:

* **Atomic writes.** :func:`save_arrays`, :func:`save_npy`,
  :func:`save_json` and :func:`write_meta_npz` write to a temporary
  sibling file and ``os.replace`` it into place, so a crash mid-write
  can never leave a truncated file where a reader (or a resuming
  training run) expects a valid one.
* **Strict JSON.** ``json.dumps`` happily emits ``NaN``/``Infinity``,
  which is *not* JSON — strict parsers (``jq``, browsers, most non-Python
  tooling) reject it. :func:`to_jsonable` coerces non-finite floats to
  ``null`` and :func:`save_json` passes ``allow_nan=False`` so a
  non-finite value can never slip through unnoticed.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

__all__ = [
    "save_arrays",
    "load_arrays",
    "save_npy",
    "save_json",
    "load_json",
    "to_jsonable",
    "write_meta_npz",
    "read_meta_npz",
]

PathLike = Union[str, Path]


def _atomic_write_bytes(path: Path, writer) -> None:
    """Call ``writer(tmp_path)`` then atomically rename onto ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # writer failed before the replace
            tmp.unlink()


def save_arrays(path: PathLike, arrays: Mapping[str, np.ndarray]) -> None:
    """Write a name→array mapping to an ``.npz`` archive (parents created).

    The write is atomic: readers either see the previous archive or the
    complete new one, never a partially written file.
    """
    path = Path(path)

    def writer(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            np.savez(fh, **{k: np.asarray(v) for k, v in arrays.items()})

    _atomic_write_bytes(path, writer)


def load_arrays(path: PathLike) -> Dict[str, np.ndarray]:
    """Read an ``.npz`` archive back into a plain dict of arrays."""
    with np.load(Path(path)) as data:
        return {k: data[k] for k in data.files}


def save_npy(path: PathLike, arr: np.ndarray) -> None:
    """Write one array as a C-ordered ``.npy`` file, atomically.

    Unlike an ``.npz`` member, the file can be memory-mapped back with
    ``np.load(path, mmap_mode="r")``.
    """

    def writer(tmp: Path) -> None:
        with open(tmp, "wb") as fh:
            np.save(fh, np.ascontiguousarray(arr))

    _atomic_write_bytes(Path(path), writer)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert NumPy containers/scalars into JSON-safe values.

    Non-finite floats (``nan``, ``±inf``) become ``None`` — JSON has no
    spelling for them, and emitting Python's ``NaN`` extension produces
    files strict parsers reject.
    """
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()] if obj.ndim else to_jsonable(obj.item())
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, Mapping):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def save_json(path: PathLike, obj: Any) -> None:
    """Serialize ``obj`` (NumPy-friendly) to JSON indented by 2, atomically."""
    path = Path(path)
    text = json.dumps(to_jsonable(obj), indent=2, allow_nan=False) + "\n"

    def writer(tmp: Path) -> None:
        tmp.write_text(text)

    _atomic_write_bytes(path, writer)


def load_json(path: PathLike) -> Any:
    """Load JSON written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def write_meta_npz(
    path: PathLike, arrays: Mapping[str, np.ndarray], meta: Mapping[str, Any]
) -> Path:
    """Atomically write ``arrays`` plus a JSON ``meta`` doc as one ``.npz``.

    The single-file idiom shared by training checkpoints, model bundles
    and saved tasks: every array rides under its own entry and all
    scalar state rides in one JSON document stored as the ``meta`` entry.
    """
    path = Path(path)
    save_arrays(path, {**arrays, "meta": np.array(json.dumps(to_jsonable(meta)))})
    return path


def read_meta_npz(path: PathLike):
    """Read a file written by :func:`write_meta_npz` → ``(arrays, meta)``."""
    arrays = load_arrays(path)
    if "meta" not in arrays:
        raise ValueError(f"{path} is not a meta-npz bundle (no meta entry)")
    meta = json.loads(str(arrays.pop("meta")))
    return arrays, meta
