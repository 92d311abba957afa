"""Shared infrastructure: RNG plumbing, logging, timing, serialization."""

from repro.utils.logging import get_logger, set_verbosity
from repro.utils.rng import RngLike, derive, ensure_rng
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
    to_jsonable,
)
from repro.utils.timing import Stopwatch, Timer

__all__ = [
    "RngLike",
    "ensure_rng",
    "derive",
    "get_logger",
    "set_verbosity",
    "Timer",
    "Stopwatch",
    "save_arrays",
    "load_arrays",
    "save_json",
    "load_json",
    "to_jsonable",
]
