"""CSV export of :class:`~repro.obs.MetricsRegistry` snapshots.

One long-format row per scalar (``kind,name,field,value``), the format
spreadsheet-side analysis of benchmark sweeps wants; ``python -m repro
profile --csv`` writes it. Values are written with ``repr``, so floats
survive a parse back exactly, which the exporter tests assert. (The
JSON form is the snapshot dict itself: ``json.dumps(reg.snapshot())``.)
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, Union

from repro.obs.registry import MetricsRegistry

__all__ = ["to_csv", "write_csv"]

Snapshot = Dict[str, Any]


def _as_snapshot(source: Union[MetricsRegistry, Snapshot]) -> Snapshot:
    if isinstance(source, MetricsRegistry):
        return source.snapshot()
    return source


_CSV_HEADER = ("kind", "name", "field", "value")


def to_csv(source: Union[MetricsRegistry, Snapshot]) -> str:
    """Serialize a registry (or snapshot dict) to long-format CSV text."""
    snap = _as_snapshot(source)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for name in sorted(snap.get("counters", {})):
        writer.writerow(["counter", name, "value", repr(snap["counters"][name])])
    for name in sorted(snap.get("gauges", {})):
        writer.writerow(["gauge", name, "value", repr(snap["gauges"][name])])
    for name in sorted(snap.get("histograms", {})):
        for field, value in snap["histograms"][name].items():
            writer.writerow(["histogram", name, field, repr(value)])
    for name in sorted(snap.get("phases", {})):
        for field, value in snap["phases"][name].items():
            writer.writerow(["phase", name, field, repr(value)])
    return buf.getvalue()


def write_csv(source: Union[MetricsRegistry, Snapshot], path: str) -> None:
    """Write the CSV export to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_csv(source))
