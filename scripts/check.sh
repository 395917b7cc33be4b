#!/usr/bin/env bash
# The full local gate: formatting, clippy (warnings promoted to
# errors), rustdoc (warnings, such as a dangling doc link, promoted to
# errors), the workspace's own static-analysis passes, a locked build
# of the standalone benchmark package and its own tests, and the test
# suite. CI and pre-merge runs should call exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> vqoe-analyze (ten passes: determinism / panic-path / constants / hygiene / bounded / clock / locks / floatord / clones / stale-allow)"
cargo build -q -p vqoe-analyze
target/debug/vqoe-analyze

echo "==> qoebench standalone build (--locked: its committed Cargo.lock must stay current)"
cargo build --release --offline --locked \
  --manifest-path crates/bench/src/bin/qoebench/Cargo.toml --target-dir target/qoebench

echo "==> qoebench's own tests (smoke runs of every workload with their checks)"
cargo test --release --offline --locked \
  --manifest-path crates/bench/src/bin/qoebench/Cargo.toml --target-dir target/qoebench

echo "==> cargo test --workspace"
cargo test --workspace -q

# The vendored stand-ins sit outside the workspace (see the root
# Cargo.toml), so `--workspace` never runs their own tests.
for manifest in vendor/*/Cargo.toml; do
  echo "==> cargo test ${manifest%/Cargo.toml}"
  cargo test --offline -q --manifest-path "$manifest" --target-dir target/vendor
done

# Opt-in long soak: a high-fault chaos stream through the online
# assessor (see scripts/soak.sh), plus a 10k-subscriber memory smoke.
# Default runtime is unchanged.
if [[ "${VQOE_SOAK:-0}" == "1" ]]; then
  ./scripts/soak.sh
  echo "==> repro subscriber-scaling smoke (10k concurrent subscribers)"
  cargo build --release -q -p vqoe-bench
  ./target/release/repro subscriber-scaling --smoke \
    --bench-json BENCH_smoke_pr10.json >/dev/null
  # Per-subscriber memory must stay a small constant: the 10k point has
  # to land in the same band the 100k-1M ladder reports.
  bps=$(sed -n 's/.*"bytes_per_subscriber": \([0-9]*\).*/\1/p' BENCH_smoke_pr10.json | head -1)
  if [[ -z "$bps" || "$bps" -gt 16384 ]]; then
    echo "subscriber-scaling smoke: bytes/subscriber '$bps' breaches the 16 KiB bound"
    exit 1
  fi
  echo "subscriber-scaling smoke: ${bps} bytes/subscriber (< 16 KiB bound)"
  rm -f BENCH_smoke_pr10.json
fi

echo "all gates passed"
