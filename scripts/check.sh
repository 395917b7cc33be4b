#!/usr/bin/env bash
# The full local gate: formatting, clippy (warnings promoted to
# errors), rustdoc (warnings, such as a dangling doc link, promoted to
# errors), the workspace's own static-analysis passes, a locked build
# of the standalone benchmark package and its own tests, and the test
# suite. Every cargo step that resolves the workspace runs `--locked`,
# so a stale root Cargo.lock fails the gate instead of being rewritten.
# CI and pre-merge runs should call exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# Clippy also carries the panic-path, wall-clock, determinism and
# shared-state gates: each gated crate root turns on unwrap_used /
# expect_used / panic and disallowed_methods / disallowed_types (the
# banned clock, HashMap/HashSet and Mutex/RwLock paths are in
# clippy.toml).
echo "==> cargo clippy --locked --workspace --all-targets -- -D warnings (with the panic-path, wall-clock, HashMap/HashSet and Mutex/RwLock gates)"
cargo clippy --locked --workspace --all-targets -- -D warnings

echo "==> cargo doc --locked --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --locked --workspace --no-deps --offline

echo "==> vqoe-analyze (constants / hygiene / bounded, and stale-allow markers)"
cargo build -q --locked -p vqoe-analyze
target/debug/vqoe-analyze

echo "==> qoebench standalone build (--locked: its committed Cargo.lock must stay current)"
cargo build --release --offline --locked \
  --manifest-path crates/bench/src/bin/qoebench/Cargo.toml --target-dir target/qoebench

echo "==> qoebench's own tests (smoke runs of every workload with their checks)"
cargo test --release --offline --locked \
  --manifest-path crates/bench/src/bin/qoebench/Cargo.toml --target-dir target/qoebench

echo "==> cargo test --locked --workspace"
cargo test --locked --workspace -q

# The vendored stand-ins sit outside the workspace (see the root
# Cargo.toml), so `--workspace` never runs their own tests.
for manifest in vendor/*/Cargo.toml; do
  echo "==> cargo test ${manifest%/Cargo.toml}"
  cargo test --offline -q --manifest-path "$manifest" --target-dir target/vendor
done

# Opt-in long soak (see scripts/soak.sh): a high-fault chaos stream
# through the online assessor, a budgeted flood, and the 10k-subscriber
# memory bound. Default runtime is unchanged.
if [[ "${VQOE_SOAK:-0}" == "1" ]]; then
  ./scripts/soak.sh
fi

echo "all gates passed"
