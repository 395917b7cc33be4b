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
//! `disallowed_types` (the root `clippy.toml`) keep the OS clock out.
//! Each gated crate root switches them on with a `#![warn(...)]`.
//!
//! Seven passes, each a module, cover what clippy cannot see:
//!
//! 1. [`determinism`] — no `HashMap` iteration in the deterministic
//!    crates;
//! 2. [`constants`] — the paper's headline numbers (70 / 210 features,
//!    RR 0.1, CUSUM 500, class names) agree everywhere they are stated;
//! 3. [`hygiene`] — every member crate opts into the workspace lint
//!    policy, inherits workspace dependencies, and documents itself;
//! 4. [`bounded`] — every struct-field session table (`BTreeMap` /
//!    `HashMap`) in the deterministic crates evicts somewhere, so a
//!    hostile tap cannot grow resident state without bound;
//! 5. [`locks`] — no `Mutex`/`RwLock` guard live across a channel
//!    send / scope spawn / `run_indexed` handoff, and no locking inside
//!    a parallel fan-out job (the byte-identity contract's deadlock and
//!    convoy hazards);
//! 6. [`floatord`] — no order-sensitive `f64`/`f32` accumulation
//!    sourced from a `HashMap`/`HashSet` walk (the bits the
//!    byte-identity contract promises never change);
//! 7. [`clones`] — no `.clone()`/`.to_vec()` of heavy session data
//!    inside shard-handoff or per-job fan-out loops (severity `warn`:
//!    a cost, not a bug).
//!
//! [`staleallow`] keeps the suppression markers honest: every
//! `analyze:allow(rule)` marker must still suppress something, and one
//! naming a rule the analyzer does not have fails the gate.
//!
//! [`run_all`] is the one walk: it lexes each source file once, and
//! [`analyze_file`] runs the line-level passes that apply to the
//! file's crate; [`constants::check`] and [`hygiene::check`] read the
//! workspace as a whole. The scope-aware passes (5–7) run on the
//! [`tree`] token-tree layer built over the [`lexer`]. Violations carry `file:line`, a rule id,
//! a severity ([`Severity::Deny`] fails the gate, [`Severity::Warn`]
//! reports), and a message; [`gate_fails`] turns the findings into
//! the exit verdict. A `// analyze:allow(<rule>)` comment on (or
//! directly above) a line is the one way to suppress a finding.
//!
//! The crate deliberately depends on nothing but `std` — it is the gate
//! for the rest of the workspace and must keep building when everything
//! else is broken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod bounded;
pub mod clones;
pub mod constants;
pub mod determinism;
pub mod floatord;
pub mod hygiene;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod staleallow;
pub mod tree;
pub mod walk;

use std::path::Path;

use lexer::Line;

/// Crates whose library code must be a pure function of seeds.
/// `crates/bench` is exempt: timing wall-clock is its purpose.
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

/// How a rule's findings affect the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Findings fail the gate (exit nonzero).
    Deny,
    /// Findings are reported but never fail the gate on their own.
    Warn,
}

/// Static metadata for one rule id.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule id (the token accepted by `analyze:allow(...)`).
    pub id: &'static str,
    /// Gate behaviour of the rule's findings.
    pub severity: Severity,
    /// True when the rule fires on specific lines, which is what makes
    /// its `analyze:allow` markers staleness-checkable.
    pub line_rule: bool,
}

/// Every rule the passes can emit, in stable order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "hashmap-iter",
        severity: Severity::Deny,
        line_rule: true,
    },
    Rule {
        id: "const-missing",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "const-mismatch",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "workspace-lints",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "workspace-dep",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "lib-doc",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "missing-docs-attr",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "forbid-unsafe",
        severity: Severity::Deny,
        line_rule: false,
    },
    Rule {
        id: "unbounded-map",
        severity: Severity::Deny,
        line_rule: true,
    },
    Rule {
        id: "lock-across-handoff",
        severity: Severity::Deny,
        line_rule: true,
    },
    Rule {
        id: "float-reduce-order",
        severity: Severity::Deny,
        line_rule: true,
    },
    Rule {
        id: "clone-heavy-handoff",
        severity: Severity::Warn,
        line_rule: true,
    },
    Rule {
        id: "stale-allow",
        severity: Severity::Deny,
        line_rule: false,
    },
];

/// The severity of `rule` (unknown rules gate as deny — fail safe).
pub fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map_or(Severity::Deny, |r| r.severity)
}

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

/// Run every line-level pass on one file: a pure function of the
/// relative path (crate scoping) and content.
pub fn analyze_file(rel: &str, text: &str) -> Vec<Finding> {
    let lines = lexer::lex_file(text);
    let tree = tree::TokenTree::build(&lines);
    let krate = crate_of(rel);
    let mut raw: Vec<Finding> = Vec::new();
    if krate.is_some_and(|c| DETERMINISM_CRATES.contains(&c)) {
        raw.extend(determinism::raw_findings(rel, &lines));
        raw.extend(bounded::raw_findings(rel, &lines));
    }
    raw.extend(locks::raw_findings(rel, &lines, &tree));
    raw.extend(floatord::raw_findings(rel, &lines, &tree));
    raw.extend(clones::raw_findings(rel, &lines, &tree));

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

/// The gate's verdict: true when any finding has [`Severity::Deny`].
/// Warn-severity findings are reported but never fail the gate.
pub fn gate_fails(findings: &[Finding]) -> bool {
    findings
        .iter()
        .any(|f| severity_of(&f.rule) == Severity::Deny)
}
