//! End-to-end tests for the gates: each fixture under
//! `tests/fixtures/` seeds one violation per rule, and the live
//! workspace must come out clean (the gate gates itself).

use std::path::{Path, PathBuf};
use std::process::Command;

use vqoe_analyze::report::render_text;
use vqoe_analyze::{gate_fails, run_all, Finding};

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
fn determinism_fixture_trips_every_rule_once() {
    let findings = findings_of("determinism", &["hashmap-iter"]);
    // One HashMap walk in the simnet fixture, one in the engine-reducer
    // fixture; its BTreeMap and keyed-access paths stay silent.
    assert_eq!(
        rules(&findings),
        vec!["hashmap-iter", "hashmap-iter"],
        "{findings:?}"
    );
    assert!(findings[0].file.ends_with("crates/core/src/engine.rs"));
    assert!(findings[0].message.contains("per_shard"));
    assert!(findings[1].file.ends_with("crates/simnet/src/lib.rs"));
    assert!(findings[1].message.contains("counts"));
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
fn hygiene_fixture_reports_manifest_and_lib_violations() {
    let findings = findings_of(
        "hygiene",
        &[
            "workspace-lints",
            "workspace-dep",
            "lib-doc",
            "missing-docs-attr",
            "forbid-unsafe",
        ],
    );
    let rules = rules(&findings);
    assert!(rules.contains(&"workspace-lints"));
    assert!(rules.contains(&"lib-doc"));
    assert!(rules.contains(&"missing-docs-attr"));
    assert!(rules.contains(&"forbid-unsafe"));
    // `rand = "0.8"` is flagged; `serde = { workspace = true }` is not.
    let dep: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == "workspace-dep")
        .collect();
    assert_eq!(dep.len(), 1, "{dep:?}");
    assert!(dep[0].message.contains("rand"));
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
fn locks_fixture_flags_both_shapes_and_spares_lookalikes() {
    let findings = findings_of("locks", &["lock-across-handoff"]);
    assert_eq!(
        rules(&findings),
        vec!["lock-across-handoff", "lock-across-handoff"],
        "{findings:?}"
    );
    // Shape 1: the guard live across the send.
    assert_eq!(findings[0].line, 7);
    assert!(findings[0].message.contains("`guard`"));
    assert!(findings[0].message.contains("send"));
    // Shape 2: the lock inside the spawned worker body.
    assert_eq!(findings[1].line, 13);
    assert!(findings[1].message.contains("fan-out"));
    // The dropped-guard, narrow-scope, io::Read, allow-marked and
    // test-module sites all stayed silent.
}

#[test]
fn floatord_fixture_flags_both_shapes_and_spares_lookalikes() {
    let findings = findings_of("floatord", &["float-reduce-order"]);
    assert_eq!(
        rules(&findings),
        vec!["float-reduce-order", "float-reduce-order"],
        "{findings:?}"
    );
    // Shape 1: the `.sum::<f64>()` chained onto the HashMap walk.
    assert_eq!(findings[0].line, 6);
    assert!(findings[0].message.contains("sum"));
    // Shape 2: the `+=` inside the loop over the HashMap.
    assert_eq!(findings[1].line, 12);
    assert!(findings[1].message.contains("+="));
    // BTreeMap, integer, sorted-keys, allow-marked and test sites all
    // stayed silent.
}

#[test]
fn clones_fixture_flags_heavy_clones_and_spares_lookalikes() {
    let findings = findings_of("clones", &["clone-heavy-handoff"]);
    assert_eq!(
        rules(&findings),
        vec!["clone-heavy-handoff", "clone-heavy-handoff"],
        "{findings:?}"
    );
    // The clone in the send loop (via loop-variable propagation) and
    // the `.to_vec()` in the fan-out job.
    assert_eq!(findings[0].line, 7);
    assert_eq!(findings[1].line, 13);
    assert!(findings[1].message.contains("`entries`"));
    // Moved values, light types, out-of-loop clones, allow-marked and
    // test sites all stayed silent.
}

#[test]
fn staleallow_fixture_flags_dead_and_typo_markers_only() {
    let findings = findings_of("staleallow", &["stale-allow"]);
    assert_eq!(
        rules(&findings),
        vec!["stale-allow", "stale-allow"],
        "{findings:?}"
    );
    // The dead hashmap-iter marker.
    assert_eq!(findings[0].line, 15);
    assert!(findings[0].message.contains("no longer suppresses"));
    // The typo'd rule name.
    assert_eq!(findings[1].line, 20);
    assert!(findings[1].message.contains("hashmap-itre"));
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

#[test]
fn warn_severity_findings_do_not_fail_the_gate() {
    let findings = findings_of("clones", &["clone-heavy-handoff"]);
    // clone-heavy-handoff is warn: reported, but the gate still passes.
    assert!(!gate_fails(&findings), "{findings:?}");
    let text = render_text(&findings);
    assert!(text.contains("warning: [clone-heavy-handoff]"), "{text}");
    assert!(text.contains("0 violation(s), 2 warning(s)"), "{text}");
    // One deny finding alongside the warnings flips the verdict.
    let mut denied = findings.clone();
    denied.push(Finding::new("a.rs", 1, "hashmap-iter", "m"));
    assert!(gate_fails(&denied));
}
