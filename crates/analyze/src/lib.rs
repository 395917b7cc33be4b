//! # vqoe-analyze
//!
//! Zero-dependency static-analysis gates for the vqoe workspace,
//! reproducing the engineering discipline behind *Measuring Video QoE
//! from Encrypted Traffic* (IMC 2016): the whole evaluation is a pure
//! function of seeds, so the code must never read ambient entropy, and
//! the pipeline targets operator deployment, so library code must never
//! panic on hostile input.
//!
//! Ten passes, each a module:
//!
//! 1. [`determinism`] — no `thread_rng`, no wall-clock reads, no
//!    `HashMap` iteration in the deterministic crates;
//! 2. [`panics`] — no `unwrap`/`expect`/`panic!` in non-test library
//!    code;
//! 3. [`constants`] — the paper's headline numbers (70 / 210 features,
//!    RR 0.1, CUSUM 500, class names) agree everywhere they are stated;
//! 4. [`hygiene`] — every member crate opts into the workspace lint
//!    policy, inherits workspace dependencies, and documents itself;
//! 5. [`bounded`] — every struct-field session table (`BTreeMap` /
//!    `HashMap`) in the deterministic crates evicts somewhere, so a
//!    hostile tap cannot grow resident state without bound;
//! 6. [`clock`] — no raw `std::time::Instant` / `SystemTime` outside
//!    the allowlisted non-deterministic crates: stage timing goes
//!    through the `vqoe_obs::Clock` trait;
//! 7. [`locks`] — no `Mutex`/`RwLock` guard live across a channel
//!    send / scope spawn / `run_indexed` handoff, and no locking inside
//!    a parallel fan-out job (the byte-identity contract's deadlock and
//!    convoy hazards);
//! 8. [`floatord`] — no order-sensitive `f64`/`f32` accumulation
//!    sourced from a `HashMap`/`HashSet` walk (the bits the
//!    byte-identity contract promises never change);
//! 9. [`clones`] — no `.clone()`/`.to_vec()` of heavy session data
//!    inside shard-handoff or per-job fan-out loops (severity `warn`:
//!    a cost, not a bug);
//! 10. [`staleallow`] — every `analyze:allow(rule)` marker still
//!     suppresses something; dead markers must be deleted.
//!
//! [`run_all`] is the one walk: it lexes each source file once, and
//! [`analyze_file`] runs the line-level passes that apply to the
//! file's crate; [`constants::check`] and [`hygiene::check`] read the
//! workspace as a whole. The scope-aware passes (7–9) run on the
//! [`tree`] token-tree layer built over the [`lexer`]. Violations carry `file:line`, a rule id,
//! a severity ([`Severity::Deny`] fails the gate, [`Severity::Warn`]
//! reports), and a message; [`gate_fails`] turns the findings into
//! the exit verdict. A `// analyze:allow(<rule>)` comment on (or
//! directly above) a line is the one way to suppress a finding — and
//! pass 10 keeps those markers honest.
//!
//! The crate deliberately depends on nothing but `std` — it is the gate
//! for the rest of the workspace and must keep building when everything
//! else is broken.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounded;
pub mod clock;
pub mod clones;
pub mod constants;
pub mod determinism;
pub mod floatord;
pub mod hygiene;
pub mod lexer;
pub mod locks;
pub mod panics;
pub mod report;
pub mod sarif;
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

/// Crates whose non-test code must be panic-free: the deterministic
/// nine plus this analyzer itself (it gates, so it is gated).
pub const PANIC_CRATES: &[&str] = &[
    "analyze",
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
    /// One-line description (used in SARIF rule metadata).
    pub summary: &'static str,
    /// True when the rule fires on specific lines, which is what makes
    /// its `analyze:allow` markers staleness-checkable.
    pub line_rule: bool,
}

/// Every rule the ten passes can emit, in stable order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "thread-rng",
        severity: Severity::Deny,
        summary: "OS-seeded thread_rng breaks seed-pure reproducibility",
        line_rule: true,
    },
    Rule {
        id: "wall-clock",
        severity: Severity::Deny,
        summary: "wall-clock read in deterministic code",
        line_rule: true,
    },
    Rule {
        id: "hashmap-iter",
        severity: Severity::Deny,
        summary: "HashMap iteration order is random per process",
        line_rule: true,
    },
    Rule {
        id: "unwrap",
        severity: Severity::Deny,
        summary: "unwrap() in library code can take the pipeline down",
        line_rule: true,
    },
    Rule {
        id: "expect",
        severity: Severity::Deny,
        summary: "expect() in library code can take the pipeline down",
        line_rule: true,
    },
    Rule {
        id: "panic",
        severity: Severity::Deny,
        summary: "panic!() in library code can take the pipeline down",
        line_rule: true,
    },
    Rule {
        id: "const-missing",
        severity: Severity::Deny,
        summary: "a paper constant is not stated where required",
        line_rule: false,
    },
    Rule {
        id: "const-mismatch",
        severity: Severity::Deny,
        summary: "a paper constant disagrees between crates",
        line_rule: false,
    },
    Rule {
        id: "workspace-lints",
        severity: Severity::Deny,
        summary: "crate does not inherit the workspace lint policy",
        line_rule: false,
    },
    Rule {
        id: "workspace-dep",
        severity: Severity::Deny,
        summary: "dependency bypasses the workspace dependency table",
        line_rule: false,
    },
    Rule {
        id: "lib-doc",
        severity: Severity::Deny,
        summary: "crate root is missing its library documentation",
        line_rule: false,
    },
    Rule {
        id: "missing-docs-attr",
        severity: Severity::Deny,
        summary: "crate does not warn on missing public docs",
        line_rule: false,
    },
    Rule {
        id: "forbid-unsafe",
        severity: Severity::Deny,
        summary: "crate does not forbid unsafe code",
        line_rule: false,
    },
    Rule {
        id: "unbounded-map",
        severity: Severity::Deny,
        summary: "struct-field session table never evicts",
        line_rule: true,
    },
    Rule {
        id: "raw-wall-clock",
        severity: Severity::Deny,
        summary: "raw OS clock outside the allowlisted crates",
        line_rule: true,
    },
    Rule {
        id: "lock-across-handoff",
        severity: Severity::Deny,
        summary: "lock guard live across a thread handoff, or locking inside a fan-out job",
        line_rule: true,
    },
    Rule {
        id: "float-reduce-order",
        severity: Severity::Deny,
        summary: "order-sensitive float reduction over an unordered collection",
        line_rule: true,
    },
    Rule {
        id: "clone-heavy-handoff",
        severity: Severity::Warn,
        summary: "heavy session data cloned inside a per-job/handoff loop",
        line_rule: true,
    },
    Rule {
        id: "stale-allow",
        severity: Severity::Deny,
        summary: "analyze:allow marker no longer suppresses anything",
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
    if krate.is_some_and(|c| PANIC_CRATES.contains(&c)) {
        raw.extend(panics::raw_findings(rel, &lines));
    }
    if !krate.is_some_and(|c| clock::EXEMPT_CRATES.contains(&c)) {
        raw.extend(clock::raw_findings(rel, &lines));
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

/// Run all ten passes over the workspace at `root` and return the
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
