//! Pass 6 — raw wall-clock lint.
//!
//! Since the observability layer (`vqoe-obs`), stage timing goes
//! through the `vqoe_obs::Clock` trait: deterministic crates drive a
//! `SimClock` tick counter, and only the allowlisted non-deterministic
//! surfaces (`crates/bench`, plus explicitly marked lines such as the
//! `vqoe` CLI's `WallClock`) may touch the OS clock. This pass enforces
//! the boundary *everywhere* — unlike the determinism pass's
//! `wall-clock` rule it also flags mentions of the raw types
//! (`std::time::Instant` fields, `SystemTime` imports), not just `now()`
//! calls, so a wall-clock handle cannot be smuggled into a deterministic
//! crate and read later (rule `raw-wall-clock`).
//!
//! `std::time::Duration` stays legal everywhere: a duration is plain
//! data, only *reading* a clock is non-deterministic.

use crate::lexer::Line;
use crate::tree::contains_token;
use crate::Finding;

/// Crates whose whole purpose is wall-clock measurement; every other
/// member crate (including binaries) must go through `vqoe_obs::Clock`
/// or carry an explicit `analyze:allow(raw-wall-clock)` marker.
pub(crate) const EXEMPT_CRATES: &[&str] = &["bench"];

/// Per-file findings *before* `analyze:allow` filtering.
pub(crate) fn raw_findings(file: &str, lines: &[Line]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if let Some(what) = raw_clock_use(&line.code) {
            findings.push(Finding::new(
                file,
                idx + 1,
                "raw-wall-clock",
                format!(
                    "raw OS clock `{what}` outside the allowlisted \
                     non-deterministic crates; implement or take a \
                     `vqoe_obs::Clock` instead"
                ),
            ));
        }
    }
    findings
}

/// The raw clock token this line touches, if any. `SystemTime` alone is
/// enough (it has no deterministic twin); `Instant` only counts when
/// the line ties it to `std::time` — the workspace's own
/// `vqoe_simnet::time::Instant` is the deterministic twin and must not
/// fire.
fn raw_clock_use(code: &str) -> Option<&'static str> {
    if contains_token(code, "SystemTime") {
        return Some("SystemTime");
    }
    if contains_token(code, "Instant") && code.contains("std::time") {
        return Some("std::time::Instant");
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_file;

    fn findings_in(src: &str) -> Vec<Finding> {
        let lines = lex_file(src);
        crate::filter_allows(raw_findings("x.rs", &lines), &lines)
    }

    #[test]
    fn std_time_instant_is_flagged() {
        let f = findings_in("struct W { origin: std::time::Instant }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-wall-clock");
        let f = findings_in("let t = std::time::Instant::now();\n");
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn system_time_is_flagged_even_unqualified() {
        let f = findings_in("use std::time::SystemTime;\n");
        assert_eq!(f.len(), 1);
        let f = findings_in("let t = SystemTime::now();\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SystemTime"));
    }

    #[test]
    fn simnet_instant_and_durations_are_fine() {
        assert!(findings_in("use vqoe_simnet::time::Instant;\n").is_empty());
        assert!(findings_in("let i: Instant = Instant::ZERO;\n").is_empty());
        assert!(
            findings_in("std::thread::sleep(std::time::Duration::from_micros(3));\n").is_empty()
        );
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "// analyze:allow(raw-wall-clock)\nlet t: std::time::Instant = x;\n";
        assert!(findings_in(src).is_empty());
        let src = "let t: std::time::Instant = x; // analyze:allow(raw-wall-clock)\n";
        assert!(findings_in(src).is_empty());
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "// a std::time::Instant would be wrong here\nlet s = \"SystemTime\";\n";
        assert!(findings_in(src).is_empty());
    }
}
