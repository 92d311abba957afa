"""End-to-end benchmark of the AM-DGCNN reproduction.

Runs each workload in its own child process (single-threaded BLAS),
prints every metric by name with its unit and sample count, checks the
outputs, and prints one JSON result object as the last line::

    python3 benchmarks/e2e/run.py --workload table3-primekg --seed 0 --seconds 15 --trace 0

``--trace`` (or ``--trace 1``) reports the per-layer metrics instead of
the end-to-end ones. Each run's full record goes to ``--out`` (default
``.bench_out/``), traced spans beside it; ``compare.py`` reads those
records. Exits non-zero when an output check fails or the benchmark
cannot run (for example, outside a checkout of the repository).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("table3-primekg", "score-cold", "serve-zipf", "stream-churn")


def declared_metrics(trace: bool) -> dict:
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(record: dict, units: dict) -> dict:
    """The result object printed as the last line; raises if the metric set is off."""
    metrics = record["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise ValueError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        raise ValueError(f"non-finite metric values: {bad}")
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def child(workload: str, args, spans: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", str(spans)]
    # A traced run times the loop twice; set-ups and checks come on top.
    timeout = max(MIN_CHILD_TIMEOUT_S, 60 + 2 * args.seconds * (2 if args.trace else 1))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def report(record: dict, units: dict) -> None:
    labels = record["labels"]
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{'per-layer (traced)' if record['trace'] else 'end to end'}")
    for name in units:
        value = record["metrics"][name]
        note = ""
        if name == "throughput_per_s":
            note = labels["throughput_per_s"]
        elif name.startswith("latency_"):
            pct = "p50" if name == "latency_p50_ms" else labels["latency_tail_ms"]
            note = f"{pct} of {labels['latency']}, n={record['samples'][name]}"
            if labels["windows"] > 1:
                note += f", median of {labels['windows']} windows"
        elif name == "setup_s":
            note = f"median of {record['samples']['setup_s']} set-ups"
        print(f"  {name:36s} {value:14.6g} {units[name]:9s} {note}")
    for check in record["checks"]:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['name']} ({check['detail']})")
    details = record["details"]
    if "auc" in details:
        committed = details.get("committed") or {}
        print(f"  AUC {details['auc']:.4f} (committed {committed.get('auc', 'n/a')})  "
              f"AP {details['ap']:.4f} (committed {committed.get('ap', 'n/a')})")
    for step in details.get("steps", []):
        print(f"  {step['rate']:6d} req/s {step['seconds']:5.2f}s  n={step['requests']:5d}  "
              f"p50 {step['p50_ms']:7.2f} ms  p99 {step['p99_ms']:7.2f} ms  "
              f"rejected {step['rejected']:4d}  late p99 {step['late_p99_ms']:6.2f} ms  "
              f"{'pass' if step['passed'] else 'FAIL'}")
    if "saturated" in details:
        sat = details["saturated"]
        print(f"  closed loop: {sat['requests']} requests at {sat['rps']:.1f} req/s")
    if "phase_check" in details:
        ratios = "  ".join(f"{k} {v:.3f}" for k, v in details["phase_check"].items())
        print(f"  span sums / TrainResult.phase_seconds: {ratios}")
    if not record["trace"]:
        print(f"  host slowdown {details['slowdown']:.3f} (latency {details['latency_slowdown']:.3f}) "
              f"from {details['probes']} probes; "
              "unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in details["unscaled"].items()))
    print(f"  attempted {record['attempted']}  failed {record['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="AM-DGCNN end-to-end benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in WORKLOAD_NAMES if args.workload == "all" else (args.workload,):
        stem = f"{workload}-seed{args.seed}{'-trace' if args.trace else ''}"
        try:
            record = child(workload, args, args.out / f"{stem}.spans.json")
            line = result_line(record, units)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1))
        report(record, units)
        print(json.dumps(line), flush=True)
        if not record["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
