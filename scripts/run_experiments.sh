#!/usr/bin/env bash
# Regenerate the EXPERIMENTS.md measurement set (full-scale runs).
# Outputs land in results/; run time ~30-45 min on one CPU core.
set -u
cd "$(dirname "$0")/.."
mkdir -p results
rm -f results/STATUS

python -m repro table3 --scale 0.5 > results/table3_scale0.5.txt 2>&1
for ds in cora primekg biokg wordnet; do
  python -m repro epochs --dataset "$ds" --scale 0.4 > "results/epochs_$ds.txt" 2>&1
done
for ds in primekg biokg wordnet; do
  python -m repro samples --dataset "$ds" --scale 0.4 --settings tuned \
    > "results/samples_$ds.txt" 2>&1
done
echo DONE > results/STATUS
