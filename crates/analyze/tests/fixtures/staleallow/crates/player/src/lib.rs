//! Stale-allow fixture: a live marker (stays), a dead marker (flagged),
//! a typo'd rule name (flagged), a manifest-level rule (skipped), a
//! self-suppressed dead marker (skipped) and a retired rule (flagged).
//!
//! Doc-comment mentions of `analyze:allow(unbounded-map)` are not markers.

use std::collections::BTreeMap;

struct Live {
    // a helper owns the eviction. analyze:allow(unbounded-map)
    open: BTreeMap<u64, u64>,
}

fn dead() -> u64 {
    // analyze:allow(unbounded-map)
    42
}

fn typo() -> u64 {
    // analyze:allow(unbounded-mpa)
    7
}

fn manifest_rule_is_skipped() -> u64 {
    // analyze:allow(workspace-lints)
    8
}

fn self_suppressed() -> u64 {
    // analyze:allow(stale-allow) analyze:allow(unbounded-map)
    9
}

fn retired() -> u64 {
    // analyze:allow(lock-across-handoff)
    10
}
