"""Lightweight timers for profiling trainers and experiment drivers.

The guides for numerical Python stress *measure before optimizing*; these
helpers make it cheap to instrument hot paths without pulling in external
profilers. ``Timer`` is a context manager; ``Stopwatch`` accumulates named
segments across repeated calls (e.g. per-epoch forward/backward splits).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

__all__ = ["Timer", "Stopwatch"]


@dataclass
class Timer:
    """Context manager measuring wall-clock seconds.

    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0
    True
    """

    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


class Stopwatch:
    """Accumulate wall-clock time under named segments.

    >>> sw = Stopwatch()
    >>> with sw.segment("forward"):
    ...     pass
    >>> "forward" in sw.totals
    True
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    @contextmanager
    def segment(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] += time.perf_counter() - start
            self.counts[name] += 1

