#!/usr/bin/env bash
# Reports for the systems harnesses `repro` keeps: overload shedding,
# concurrent-subscriber scaling and the model set-up split.
#
#   scripts/bench.sh
#
# Builds release and leaves
#   results/overload-sweep.txt      overload/shedding/restore report
#   BENCH_pr7.json                  machine-readable record (shed_rate, tiers)
#   results/setup-split.txt         model set-up time per training stage
#   results/subscriber-scaling.txt  100k-1M streaming-state ladder
#   BENCH_pr10.json                 machine-readable record (bytes/subscriber)
#
# These are reports, not gates. Speed is measured by qoebench, the one
# speed harness (BENCHMARK.json; `--trace 1` for the per-layer profile).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p vqoe-bench"
cargo build --release -p vqoe-bench

mkdir -p results
echo "==> repro overload-sweep (quick mode)"
./target/release/repro overload-sweep --smoke \
  --bench-json BENCH_pr7.json --out results

echo "==> BENCH_pr7.json"
cat BENCH_pr7.json

echo "==> repro setup-split"
./target/release/repro setup-split --smoke --out results

# The only experiment run at its full harness point: the ladder IS the
# deliverable (100k-1M concurrent subscribers; a few minutes). The
# training context still builds at smoke scale via --sessions.
echo "==> repro subscriber-scaling (full 100k-1M ladder)"
./target/release/repro subscriber-scaling --sessions 800 \
  --bench-json BENCH_pr10.json --out results

echo "==> BENCH_pr10.json"
cat BENCH_pr10.json

echo "bench done"
