//! End-to-end tests for the gates: each fixture under
//! `tests/fixtures/` seeds one violation per rule, and the live
//! workspace must come out clean (the gate gates itself).

use std::path::{Path, PathBuf};
use std::process::Command;

use vqoe_analyze::{run_all, Finding};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The findings `run_all` reports on fixture `name` under the rule ids
/// of one pass: each fixture seeds one pass's violations, and the other
/// passes' findings on it (const-missing noise and the like) are not
/// what its test is about.
fn findings_of(name: &str, pass_rules: &[&str]) -> Vec<Finding> {
    run_all(&fixture(name))
        .into_iter()
        .filter(|f| pass_rules.contains(&f.rule.as_str()))
        .collect()
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn constants_fixture_reports_the_seeded_mismatch() {
    let findings = findings_of("constants", &["const-missing", "const-mismatch"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "const-mismatch");
    assert_eq!(findings[0].file, "DESIGN.md");
    assert!(findings[0].message.contains("71"));
    assert!(findings[0].message.contains("70"));
}

#[test]
fn hygiene_fixture_reports_manifest_violations() {
    let findings = findings_of("hygiene", &["workspace-lints", "workspace-dep"]);
    assert_eq!(
        rules(&findings),
        vec!["workspace-lints", "workspace-dep"],
        "{findings:?}"
    );
    // `rand = "0.8"` is flagged; `serde = { workspace = true }` is not.
    assert!(findings[1].message.contains("rand"));
}

#[test]
fn bounded_fixture_flags_only_the_evictionless_table() {
    let findings = findings_of("bounded", &["unbounded-map"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "unbounded-map");
    assert!(findings[0].file.ends_with("crates/telemetry/src/lib.rs"));
    assert!(findings[0].message.contains("`open`"));
    // `recent` (retained), `delegated` (allow-marked), the local `let`
    // map, and the #[cfg(test)] field all stayed silent.
}

#[test]
fn staleallow_fixture_flags_dead_and_typo_markers_only() {
    let findings = findings_of("staleallow", &["stale-allow"]);
    assert_eq!(
        rules(&findings),
        vec!["stale-allow", "stale-allow", "stale-allow"],
        "{findings:?}"
    );
    // The dead unbounded-map marker.
    assert_eq!(findings[0].line, 15);
    assert!(findings[0].message.contains("no longer suppresses"));
    // The typo'd rule name.
    assert_eq!(findings[1].line, 20);
    assert!(findings[1].message.contains("unbounded-mpa"));
    // A rule the analyzer retired fails as an unknown one.
    assert_eq!(findings[2].line, 35);
    assert!(findings[2].message.contains("does not have"));
    // The live marker, the manifest-level rule, the self-suppressed
    // marker, and the doc-comment mention all stayed silent.
}

#[test]
fn live_workspace_passes_all_gates() {
    let findings = run_all(&workspace_root());
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn binary_exits_nonzero_on_violations_and_zero_when_clean() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    let dirty = Command::new(bin)
        .args(["--root"])
        .arg(fixture("bounded"))
        .output()
        .expect("binary runs");
    assert_eq!(dirty.status.code(), Some(1));
    let clean = Command::new(bin)
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&clean.stdout)
    );
    assert!(String::from_utf8_lossy(&clean.stdout).contains("all checks passed"));
}

#[test]
fn unknown_flags_exit_with_usage_error() {
    let bin = env!("CARGO_BIN_EXE_vqoe-analyze");
    for args in [
        &["--bogus"][..],
        &["--cache"],
        &["--no-baseline"],
        &["--format", "json"],
        &["--format", "sarif"],
    ] {
        let out = Command::new(bin)
            .args(args)
            .arg("--root")
            .arg(workspace_root())
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}
