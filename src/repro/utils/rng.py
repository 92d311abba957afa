"""Seeded random-number-generator plumbing.

Every stochastic component in :mod:`repro` accepts either an integer seed,
``None`` (fresh entropy), or a ready-made :class:`numpy.random.Generator`.
This module centralizes the conversion so experiments are reproducible from
a single integer and sub-components can derive independent child streams.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

__all__ = [
    "RngLike",
    "ensure_rng",
    "derive",
    "generator_state",
    "restore_generator_state",
]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    The single coercion path every public ``rng=`` parameter goes
    through — accept ``RngLike``, call ``ensure_rng`` once at the top,
    and pass real generators internally.

    Parameters
    ----------
    rng:
        ``None`` (fresh OS entropy), an integer seed, or an existing
        generator (returned unchanged so the caller can share a stream).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build a Generator from {type(rng).__name__}")


def derive(rng: RngLike, *tags: str) -> np.random.Generator:
    """Derive a child generator keyed by string tags.

    The result depends only on the seed *material* and the tags, so
    ``derive(7, "train")`` is identical across calls and across
    processes. Useful when a pipeline needs stable named sub-streams
    (link sampling, weight init, shuffling) from one experiment seed.
    """
    gen = ensure_rng(rng)
    seq = gen.bit_generator.seed_seq
    if seq is not None and seq.entropy is not None:
        entropy = seq.entropy
        base = entropy if isinstance(entropy, (list, tuple)) else [entropy]
        base = [int(e) % (2**32) for e in base]
    else:  # non-seeded generator: draw once to anchor the stream
        base = [int(gen.integers(0, 2**32))]
    tag_words = [zlib.crc32(t.encode("utf-8")) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(base + tag_words))


def generator_state(gen: np.random.Generator) -> Dict[str, Any]:
    """Snapshot ``gen``'s bit-generator state as a JSON-friendly dict.

    The returned dict (NumPy's own ``bit_generator.state`` payload: plain
    strings and Python ints) fully determines every future draw, so a
    checkpoint that stores it can resume a stochastic stream mid-run
    bit-identically via :func:`restore_generator_state`.
    """
    state = gen.bit_generator.state
    return _plain(state)


def restore_generator_state(gen: np.random.Generator, state: Dict[str, Any]) -> None:
    """Rewind ``gen`` to a state captured by :func:`generator_state`.

    The snapshot must come from the same bit-generator family (PCG64
    cannot resume an MT19937 stream and vice versa).
    """
    expected = type(gen.bit_generator).__name__
    got = state.get("bit_generator")
    if got != expected:
        raise ValueError(
            f"generator state is for {got!r}, cannot restore into {expected!r}"
        )
    gen.bit_generator.state = state


def _plain(obj: Any) -> Any:
    """Deep-copy a state payload into plain dict/list/int/str containers."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj
