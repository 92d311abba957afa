"""Compare two sets of end-to-end benchmark records.

    python3 benchmarks/e2e/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of records written by
``run.py --out DIR`` (traced records are skipped). Runs are paired by
workload and seed, so that what differs between seeds' inputs does not
count as noise. For every workload and end-to-end metric it prints each
set's median and quartiles, the median and quartiles of the per-seed
changes (``NEW / BASE - 1``, positive when NEW is worse), the metric's
bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved``: the quartile distance of the changes is wider than the
  bound, unless NEW reads better than BASE on every seed;
* ``regressed``: the median change is worse than the bound;
* ``within-bound``: otherwise.

It also prints the host envelope each set ran on. Exits 1 when a metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> Tuple[Dict[str, Dict[str, Dict[int, float]]], List[dict]]:
    """``{workload: {metric: {seed: value}}}`` and the host envelopes of a set."""
    values: Dict[str, Dict[str, Dict[int, float]]] = defaultdict(lambda: defaultdict(dict))
    hosts = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        for name, value in record["metrics"].items():
            values[record["workload"]][name][record["seed"]] = float(value)
        if record["host"] not in hosts:
            hosts.append(record["host"])
    return values, hosts


def summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and first/third quartiles (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def changes(base: Dict[int, float], new: Dict[int, float], better: str) -> List[float]:
    """Per-seed change of NEW over BASE, on the seeds both ran; > 0 is worse."""
    sign = 1.0 if better == "lower" else -1.0
    return [sign * (new[s] / base[s] - 1.0) for s in sorted(set(base) & set(new))]


def verdict(change: List[float], bound: float) -> str:
    med, q1, q3 = summary(change)
    if q3 - q1 > bound and not all(c < 0 for c in change):
        return "unresolved"
    return "regressed" if med > bound else "within-bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark records")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, base_hosts = load(args.base)
    new, new_hosts = load(args.new)
    for label, hosts in (("base", base_hosts), ("new", new_hosts)):
        for h in hosts:
            print(f"{label} host: nproc {h['nproc']}, usable cores {h['usable_cores']}, "
                  f"BLAS threads {h['blas_threads']}, python {h['python']}, numpy {h['numpy']}")
    print(f"{'workload':15s} {'metric':17s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'worse by [q1, q3]':>25s} {'bound':>6s}  verdict")
    regressed = False
    for workload in sorted(set(base) | set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload].get(name, {}), new[workload].get(name, {})
            change = changes(b, n, metric["better"])
            if not change:
                print(f"{workload:15s} {name:17s} no seed ran in both sets")
                continue
            result = verdict(change, metric["bound"])
            regressed |= result == "regressed"
            cells = []
            for values in (list(b.values()), list(n.values())):
                med, q1, q3 = summary(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}")
            med, q1, q3 = summary(change)
            paired = f"{med:+.3f} [{q1:+.3f}, {q3:+.3f}] n={len(change)}"
            print(f"{workload:15s} {name:17s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{paired:>25s} {metric['bound']:6.2f}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
