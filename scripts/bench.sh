#!/usr/bin/env bash
# Reports for the systems harnesses `repro` keeps: overload shedding,
# concurrent-subscriber scaling and the model set-up split.
#
#   scripts/bench.sh
#
# Builds release and leaves
#   results/overload-sweep.txt      overload/shedding/restore report
#   results/setup-split.txt         model set-up time per training stage
#   results/subscriber-scaling.txt  100k-1M streaming-state ladder
#
# These are reports, not gates, and not records: the committed
# BENCH_pr7.json and BENCH_pr10.json are history. qoebench writes the
# one machine-readable record (BENCHMARK.json's schema; `--trace 1` for
# the per-layer profile).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --locked -p vqoe-bench"
cargo build --release --locked -p vqoe-bench

mkdir -p results
echo "==> repro overload-sweep (quick mode)"
./target/release/repro overload-sweep --smoke --out results

echo "==> repro setup-split"
./target/release/repro setup-split --smoke --out results

# The only experiment run at its full harness point: the ladder IS the
# deliverable (100k-1M concurrent subscribers; a few minutes). The
# training context still builds at smoke scale via --sessions.
echo "==> repro subscriber-scaling (full 100k-1M ladder)"
./target/release/repro subscriber-scaling --sessions 800 --out results

echo "bench done"
