//! Stale-allow fixture: a live marker (stays), a dead marker (flagged),
//! a typo'd rule name (flagged), a manifest-level rule (skipped), and a
//! self-suppressed dead marker (skipped).
//!
//! Doc-comment mentions of `analyze:allow(hashmap-iter)` are not markers.

use std::collections::HashMap;

fn live(counts: HashMap<u64, u64>) -> u64 {
    // an integer sum, whatever the order. analyze:allow(hashmap-iter)
    counts.values().sum()
}

fn dead() -> u64 {
    // analyze:allow(hashmap-iter)
    42
}

fn typo() -> u64 {
    // analyze:allow(hashmap-itre)
    7
}

fn manifest_rule_is_skipped() -> u64 {
    // analyze:allow(workspace-lints)
    8
}

fn self_suppressed() -> u64 {
    // analyze:allow(stale-allow) analyze:allow(hashmap-iter)
    9
}
