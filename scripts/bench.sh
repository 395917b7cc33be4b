#!/usr/bin/env bash
# Throughput harness for the sharded parallel assessment engine.
#
#   scripts/bench.sh          # quick mode: engine-scaling experiment only
#   scripts/bench.sh --full   # also run the Criterion perf benches
#
# Quick mode builds release, runs the `engine-scaling` and
# `obs-overhead` repro experiments at their quick harness points
# (smoke-scale training context), and leaves
#   results/engine-scaling.txt   compute-bound engine scaling report
#   results/obs-overhead.txt     metrics-layer cost report
#   BENCH_pr4.json               machine-readable record (overhead_pct)
#   results/train-scaling.txt    training fan-out scaling report
#   results/overload-sweep.txt   overload/shedding/restore report
#   BENCH_pr7.json               machine-readable record (shed_rate, tiers)
#   results/ingest-bench.txt     binary vs JSONL replay report
#   BENCH_pr8.json               machine-readable record (replay_speedup)
#   results/trace-overhead.txt   session-tracing cost report
#   BENCH_pr9.json               machine-readable record (overhead_pct)
#   results/subscriber-scaling.txt  100k-1M streaming-state ladder
#   BENCH_pr10.json              machine-readable record (bytes/subscriber)
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
if [[ "${1:-}" == "--full" ]]; then
  FULL=1
fi

echo "==> cargo build --release -p vqoe-bench"
cargo build --release -p vqoe-bench

echo "==> repro engine-scaling (quick mode)"
mkdir -p results
./target/release/repro engine-scaling --smoke --out results

echo "==> repro obs-overhead (quick mode)"
./target/release/repro obs-overhead --smoke \
  --bench-json BENCH_pr4.json --out results

echo "==> BENCH_pr4.json"
cat BENCH_pr4.json

echo "==> repro train-scaling (quick mode)"
./target/release/repro train-scaling --smoke --out results

echo "==> repro overload-sweep (quick mode)"
./target/release/repro overload-sweep --smoke \
  --bench-json BENCH_pr7.json --out results

echo "==> BENCH_pr7.json"
cat BENCH_pr7.json

echo "==> repro ingest-bench (quick mode)"
./target/release/repro ingest-bench --smoke \
  --bench-json BENCH_pr8.json --out results

echo "==> BENCH_pr8.json"
cat BENCH_pr8.json

echo "==> repro trace-overhead (quick mode)"
./target/release/repro trace-overhead --smoke \
  --bench-json BENCH_pr9.json --out results

echo "==> BENCH_pr9.json"
cat BENCH_pr9.json

# The only experiment run at its full harness point: the ladder IS the
# deliverable (100k-1M concurrent subscribers; a few minutes). The
# training context still builds at smoke scale via --sessions.
echo "==> repro subscriber-scaling (full 100k-1M ladder)"
./target/release/repro subscriber-scaling --sessions 800 \
  --bench-json BENCH_pr10.json --out results

echo "==> BENCH_pr10.json"
cat BENCH_pr10.json

if [[ "$FULL" == "1" ]]; then
  echo "==> cargo bench -p vqoe-bench (Criterion)"
  cargo bench -p vqoe-bench
fi

echo "bench done"
