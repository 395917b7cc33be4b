#!/usr/bin/env bash
# Long-running chaos soak: a half-broken tap (50 % composite fault
# rate, 8 subscribers against a 4-slot cap) streamed through the
# hardened online assessor, asserting the subscriber cap after every
# entry and counter monotonicity throughout; a budgeted overload flood;
# the CLI's peak memory against its input size; and the 10k-subscriber
# memory bound (at most 16 KiB of tracked state per subscriber). Kept
# out of the default test run for latency; scripts/check.sh invokes it
# when VQOE_SOAK=1.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> chaos soak (release, --ignored)"
cargo test --release --locked -q -p vqoe-core --test chaos_matrix -- --ignored

# The overload file's other ignored test rewrites a fixture; it is not
# a soak.
echo "==> overload soak (release, --ignored)"
cargo test --release --locked -q -p vqoe-core --test overload -- --ignored \
    --skip write_checkpoint_with_metrics_fixture

echo "==> CLI memory soak: assess and packed replay peak RSS per extra record (release, --ignored)"
cargo test --release --locked -q -p vqoe-core --test cli -- --ignored

echo "==> subscriber-scaling memory soak: 10k subscribers, <= 16 KiB each (release, --ignored)"
cargo test --release --locked -q -p vqoe-bench --lib -- --ignored ten_thousand_subscribers
