#!/usr/bin/env bash
# Non-test Rust lines per crate: for each crates/*/src/**/*.rs, the
# lines before the file's first `#[cfg(test)]` line (the whole file
# when it has none), summed per crate, then the total. The standalone
# qoebench package under crates/bench/src/bin/qoebench is excluded.
# Takes no arguments; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates -path 'crates/*/src/*' -name '*.rs' \
    -not -path 'crates/bench/src/bin/qoebench/*' -print0 |
    xargs -0 awk '
        FNR == 1 { split(FILENAME, part, "/"); crate = part[2]; in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test { print crate }
    ' |
    sort | uniq -c |
    awk '{ printf "%-10s %6d\n", $2, $1; total += $1 }
         END { printf "%-10s %6d\n", "total", total }'
