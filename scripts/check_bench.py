#!/usr/bin/env python
"""Regression gate over the committed benchmark histories.

Each suite judges the latest run of its ``results/BENCH_<suite>.json``
history, which its ``benchmarks/test_microbench_*.py`` appends to. The
:data:`SUITES` table lists, per suite, the record groups judged and the
floor each group's geomean speedup must stay at or above:

* ``distributed`` — ``data_parallel_epoch``, K-process sharded training
  over the single-process reference: >= 1.5x.
* ``dtype`` — the float32 policy over float64 on ``gat_fwd_bwd`` (the
  GATConv forward+backward) and on ``train_epoch``: >= 1.4x each.
* ``stream`` — ``delta_rescoring`` (delta-aware invalidation over a
  full cache clear): >= 3.0x; ``snapshot_apply`` (incremental snapshots
  over a per-window rebuild): >= 1.0x.

Each group is judged on its own, so a big win in one cannot hide a
regression in another. Records whose speedup is ``null`` (a non-finite
float) are skipped with a warning.

``distributed`` is multicore-only: its microbenchmark records nothing
on a host with fewer than 2 usable cores, so such a run is reported
"skipped", not judged. A multi-core run without records, or a record
stamped with < 2 cores (stale data from before that policy), fails
until the history is refreshed.

``results/BENCH_scale.json`` (the store microbenchmark's ``mmap_open``)
has no suite: that benchmark asserts its own bar when it runs.

The microbenchmarks assert their stronger acceptance bars when they
*record* a run; the gate only guards against net regressions.

Usage:
    python scripts/check_bench.py
        [--suite distributed|dtype|stream|all]
        [--results PATH]    # history override; needs a single suite

Wired into pytest as the opt-in ``bench_gate`` marker
(``benchmarks/test_bench_gate.py``); tier-1 never touches it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple, Tuple

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


class Suite(NamedTuple):
    history: str  # file name under results/
    groups: Tuple[Tuple[str, float], ...]  # (record group, floor); "x_*" is a prefix
    multicore: bool = False  # recorded only on hosts with >= 2 usable cores


SUITES = {
    "distributed": Suite(
        "BENCH_distributed.json", (("data_parallel_epoch", 1.5),), multicore=True
    ),
    "dtype": Suite("BENCH_dtype.json", (("gat_fwd_bwd", 1.4), ("train_epoch", 1.4))),
    "stream": Suite(
        "BENCH_stream.json", (("delta_rescoring", 3.0), ("snapshot_apply", 1.0))
    ),
}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _in_group(record, group: str) -> bool:
    kernel = str(record.get("kernel", ""))
    return kernel.startswith(group[:-1]) if group.endswith("*") else kernel == group


def _usable_cores(run) -> int:
    """Usable-core count stamped on a run's envelope (or its records)."""
    cores = run.get("usable_cores")
    if cores is None:
        cores = max((r.get("usable_cores", 0) for r in run.get("records", [])), default=0)
    return int(cores)


def judge(name: str, results_path=None, *, out=sys.stdout) -> int:
    """Gate suite ``name``: 0 on pass or a legitimate skip, 1 on fail."""
    suite = SUITES[name]
    path = Path(results_path or RESULTS_DIR / suite.history)
    if not path.exists():
        print(f"check_bench: {path} not found — run the {name} "
              "microbenchmark first", file=out)
        return 1
    try:
        history = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        print(f"check_bench: unusable benchmark data: {exc}", file=out)
        return 1
    if not history:
        print("check_bench: unusable benchmark data: history is empty", file=out)
        return 1
    latest = history[-1]
    stamp = latest.get("unix_time", "?")
    status = 0
    for group, floor in suite.groups:
        records = [r for r in latest.get("records", []) if _in_group(r, group)]
        if suite.multicore and not records and _usable_cores(latest) < 2:
            print(f"check_bench: run@{stamp}: single-core host recorded no "
                  f"{group} results — OK (skipped)", file=out)
            continue
        stale = [r for r in records if r.get("usable_cores", 0) < 2]
        if suite.multicore and stale:
            print(f"check_bench: FAIL — {len(stale)} {group} record(s) were "
                  "recorded on < 2 usable cores; such runs are no longer "
                  f"recorded — refresh the {name} history", file=out)
            status = 1
            continue
        speedups = [float(r["speedup"]) for r in records if r.get("speedup") is not None]
        skipped = len(records) - len(speedups)
        if not speedups:
            print(f"check_bench: FAIL — run@{stamp} has no usable {group} "
                  f"records ({skipped} null-speedup records skipped); rerun "
                  f"the {name} microbenchmark", file=out)
            status = 1
            continue
        gm = geomean(speedups)
        print(f"check_bench: run@{stamp}: geomean {group} speedup {gm:.2f}x "
              f"over {len(speedups)} records {sorted(speedups)}", file=out)
        if skipped:
            print(f"check_bench: WARNING — skipped {skipped} {group} record(s) "
                  "with null (non-finite) speedup; rerun the microbenchmark",
                  file=out)
        if gm < floor:
            print(f"check_bench: FAIL — geomean {gm:.2f}x below the "
                  f"{floor:.2f}x floor: {group} regressed", file=out)
            status = 1
    if status == 0:
        print("check_bench: OK", file=out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    parser.add_argument(
        "--results", default=None,
        help="history file override for a single --suite",
    )
    args = parser.parse_args(argv)
    if args.suite == "all" and args.results:
        parser.error("--results needs a single --suite; 'all' reads each "
                     "suite's own history")
    names = SUITES if args.suite == "all" else (args.suite,)
    return max([judge(name, args.results) for name in names])


if __name__ == "__main__":
    sys.exit(main())
