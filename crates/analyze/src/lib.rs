//! # vqoe-analyze
//!
//! Zero-dependency static-analysis gates for the vqoe workspace,
//! reproducing the engineering discipline behind *Measuring Video QoE
//! from Encrypted Traffic* (IMC 2016): the whole evaluation is a pure
//! function of seeds, so results must not depend on ambient order, and
//! the pipeline targets operator deployment, so resident state must stay
//! bounded and fan-out must not deadlock.
//!
//! Clippy carries the type-checked gates: `unwrap_used`, `expect_used`
//! and `panic` keep library code panic-free, and `disallowed_methods` /
//! `disallowed_types` (the root `clippy.toml`) keep out the OS clock,
//! the hash-ordered `HashMap` / `HashSet` and the shared-state `Mutex` /
//! `RwLock`. Each gated crate root switches them on with a
//! `#![warn(...)]`; a type ban flags the type wherever it is named, so
//! no text rule has to guess at its uses.
//!
//! Three passes, each a module, cover what no compiler can see:
//!
//! 1. [`constants`] — the paper's headline numbers (70 / 210 features,
//!    RR 0.1, CUSUM 500, class names) agree everywhere they are stated;
//! 2. [`hygiene`] — every member crate opts into the workspace lint
//!    policy and inherits workspace dependencies;
//! 3. [`bounded`] — every struct-field session table (`BTreeMap`) in
//!    the deterministic crates evicts somewhere, so a hostile tap
//!    cannot grow resident state without bound.
//!
//! [`staleallow`] keeps the suppression markers honest: every
//! `analyze:allow(rule)` marker must still suppress something, and one
//! naming a rule the analyzer does not have fails the gate.
//!
//! [`run_all`] is the one walk: it lexes each source file once, and
//! [`analyze_file`] runs the line-level pass on files of the
//! deterministic crates; [`constants::check`] and [`hygiene::check`]
//! read the workspace as a whole. Violations carry `file:line`, a rule
//! id and a message, and any finding fails the gate ([`gate_fails`]).
//! A `// analyze:allow(<rule>)` comment on (or directly above) a line
//! is the one way to suppress a finding.
//!
//! The crate deliberately depends on nothing but `std` — it is the gate
//! for the rest of the workspace and must keep building when everything
//! else is broken.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod bounded;
pub mod constants;
pub mod hygiene;
pub mod lexer;
pub mod report;
pub mod staleallow;
pub mod walk;

use std::path::Path;

use lexer::Line;

/// Crates whose library code must be a pure function of seeds: the
/// scope of the `bounded` pass. `crates/bench` and `crates/analyze`
/// run once and exit, so they keep no long-lived session tables.
pub const DETERMINISM_CRATES: &[&str] = &[
    "changedet",
    "core",
    "features",
    "ml",
    "obs",
    "player",
    "simnet",
    "stats",
    "telemetry",
];

/// Static metadata for one rule id.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id (the token accepted by `analyze:allow(...)`).
    pub id: &'static str,
    /// True when the rule fires on specific lines, which is what makes
    /// its `analyze:allow` markers staleness-checkable.
    pub line_rule: bool,
}

/// Every rule the passes can emit, in stable order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "const-missing",
        line_rule: false,
    },
    Rule {
        id: "const-mismatch",
        line_rule: false,
    },
    Rule {
        id: "workspace-lints",
        line_rule: false,
    },
    Rule {
        id: "workspace-dep",
        line_rule: false,
    },
    Rule {
        id: "unbounded-map",
        line_rule: true,
    },
    Rule {
        id: "stale-allow",
        line_rule: false,
    },
];

/// Is `rule` one of the ids in [`RULES`]?
pub fn is_known_rule(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule)
}

/// Does `rule` fire on specific lines (making its allow markers
/// staleness-checkable)?
pub fn is_line_rule(rule: &str) -> bool {
    RULES.iter().any(|r| r.id == rule && r.line_rule)
}

/// One diagnostic: where, which rule, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (the token accepted by `analyze:allow(...)`).
    pub rule: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(file: &str, line: usize, rule: &str, message: impl Into<String>) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            message: message.into(),
        }
    }
}

/// Drop findings suppressed by an `analyze:allow` marker on their line.
pub(crate) fn filter_allows(raw: Vec<Finding>, lines: &[Line]) -> Vec<Finding> {
    raw.into_iter()
        .filter(|f| match lines.get(f.line.wrapping_sub(1)) {
            Some(l) => !l.allows.iter().any(|a| a == &f.rule),
            None => true,
        })
        .collect()
}

/// The `crates/<name>/...` crate a workspace-relative path belongs to.
fn crate_of(rel: &str) -> Option<&str> {
    rel.strip_prefix("crates/")?.split('/').next()
}

/// Run the line-level pass and the stale-allow check on one file: a
/// pure function of the relative path (crate scoping) and content.
pub fn analyze_file(rel: &str, text: &str) -> Vec<Finding> {
    let lines = lexer::lex_file(text);
    let raw = match crate_of(rel) {
        Some(c) if DETERMINISM_CRATES.contains(&c) => bounded::raw_findings(rel, &lines),
        _ => Vec::new(),
    };

    let mut findings = filter_allows(raw.clone(), &lines);
    findings.extend(filter_allows(
        staleallow::raw_findings(rel, &lines, &raw),
        &lines,
    ));
    findings.sort_by(|a, b| (a.line, &a.rule).cmp(&(b.line, &b.rule)));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

/// Run every pass over the workspace at `root` and return the
/// findings sorted by `(file, line, rule)`.
pub fn run_all(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (_name, dir) in walk::crate_dirs(root) {
        for file in walk::rust_sources(&dir.join("src")) {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            findings.extend(analyze_file(&walk::rel(root, &file), &text));
        }
    }
    findings.extend(constants::check(root));
    findings.extend(hygiene::check(root));
    findings.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    findings
}

/// The gate's verdict: true when there is any finding.
pub fn gate_fails(findings: &[Finding]) -> bool {
    !findings.is_empty()
}
