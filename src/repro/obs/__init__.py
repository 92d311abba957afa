"""repro.obs — metrics, tracing and profiling for the SEAL pipeline.

The measurement substrate the ROADMAP's perf work reports against. Usage:

>>> import repro.obs as obs
>>> with obs.capture() as reg:          # enable + fresh registry
...     with obs.trace("forward"):
...         pass
>>> reg.phase_counts["forward"]
1

Instrumentation points throughout :mod:`repro.seal`, :mod:`repro.graph`
and :mod:`repro.tuning` call :func:`trace`/:func:`count`/:func:`observe`;
all three are no-ops until :func:`enable` (or :class:`capture`) turns the
subsystem on, so the default-path overhead is a single flag check.

``python -m repro profile`` (see :mod:`repro.obs.profile`) runs a small
end-to-end workload under :class:`capture` and prints the phase-time
breakdown; :mod:`repro.obs.export` serializes any registry to CSV.
"""

from repro.obs.callbacks import (
    ConsoleLogger,
    TrainingCallback,
    TrainingLogger,
)
from repro.obs.export import to_csv, write_csv
from repro.obs.registry import (
    HISTOGRAM_RELATIVE_ERROR,
    HistogramSummary,
    MetricsRegistry,
    capture,
    count,
    disable,
    enable,
    enabled,
    gauge,
    get_registry,
    merge,
    observe,
    set_registry,
    trace,
)

__all__ = [
    "MetricsRegistry",
    "HistogramSummary",
    "HISTOGRAM_RELATIVE_ERROR",
    "get_registry",
    "set_registry",
    "enable",
    "disable",
    "enabled",
    "trace",
    "count",
    "observe",
    "gauge",
    "merge",
    "capture",
    "to_csv",
    "write_csv",
    "TrainingLogger",
    "TrainingCallback",
    "ConsoleLogger",
]
