//! Pass 3 — workspace hygiene.
//!
//! Uniformity rules that keep the workspace's lint policy and
//! dependency graph centralised, checked for every member crate:
//!
//! * `lib-doc` — `src/lib.rs` opens with a `//!` crate doc comment;
//! * `missing-docs-attr` — `src/lib.rs` carries `#![warn(missing_docs)]`;
//! * `forbid-unsafe` — `src/lib.rs` carries `#![forbid(unsafe_code)]`;
//! * `workspace-lints` — `Cargo.toml` has a `[lints]` section with
//!   `workspace = true`;
//! * `workspace-dep` — every `[dependencies]`/`[dev-dependencies]`
//!   entry inherits from `[workspace.dependencies]` (`workspace =
//!   true`), so versions and vendor substitutions live in exactly one
//!   place.

use std::fs;
use std::path::Path;

use crate::walk::crate_dirs;
use crate::Finding;

/// Run the hygiene pass over the workspace at `root`: every crate
/// directory that holds a `Cargo.toml` is a member crate.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, dir) in crate_dirs(root) {
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        check_manifest(&name, &dir, &mut findings);
        check_lib(&name, &dir, &mut findings);
    }
    findings
}

fn check_manifest(name: &str, dir: &Path, findings: &mut Vec<Finding>) {
    let manifest = format!("crates/{name}/Cargo.toml");
    let Ok(text) = fs::read_to_string(dir.join("Cargo.toml")) else {
        findings.push(Finding::new(
            &manifest,
            1,
            "workspace-lints",
            "cannot read crate manifest".to_string(),
        ));
        return;
    };
    if !section_lines(&text, "[lints]").any(|(_, l)| l == "workspace = true") {
        findings.push(Finding::new(
            &manifest,
            1,
            "workspace-lints",
            "missing `[lints]` section with `workspace = true`; the crate \
             opts out of the workspace lint policy"
                .to_string(),
        ));
    }
    for section in [
        "[dependencies]",
        "[dev-dependencies]",
        "[build-dependencies]",
    ] {
        for (lineno, line) in section_lines(&text, section) {
            if line.contains('=') && !line.contains("workspace = true") {
                findings.push(Finding::new(
                    &manifest,
                    lineno,
                    "workspace-dep",
                    format!(
                        "dependency `{}` does not use `workspace = true`; declare it \
                         in [workspace.dependencies] and inherit it",
                        line.split('=').next().unwrap_or(line).trim()
                    ),
                ));
            }
        }
    }
}

/// `(line_number, trimmed_line)` for every line inside a TOML section,
/// comments and blanks skipped.
fn section_lines<'a>(
    text: &'a str,
    header: &'a str,
) -> impl Iterator<Item = (usize, &'a str)> + 'a {
    let mut in_section = false;
    text.lines().enumerate().filter_map(move |(i, raw)| {
        let line = raw.trim();
        if line.starts_with('[') {
            in_section = line == header;
            return None;
        }
        if in_section && !line.is_empty() && !line.starts_with('#') {
            Some((i + 1, line))
        } else {
            None
        }
    })
}

fn check_lib(name: &str, dir: &Path, findings: &mut Vec<Finding>) {
    let lib = dir.join("src/lib.rs");
    let Ok(text) = fs::read_to_string(&lib) else {
        return; // bin-only crates have no library to check
    };
    let rel = format!("crates/{name}/src/lib.rs");
    if !text
        .lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| l.trim_start().starts_with("//!"))
    {
        findings.push(Finding::new(
            &rel,
            1,
            "lib-doc",
            "lib.rs must open with a `//!` crate-level doc comment".to_string(),
        ));
    }
    for (attr, rule) in [
        ("#![warn(missing_docs)]", "missing-docs-attr"),
        ("#![forbid(unsafe_code)]", "forbid-unsafe"),
    ] {
        if !text.contains(attr) {
            findings.push(Finding::new(
                &rel,
                1,
                rule,
                format!("lib.rs must carry `{attr}`"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_lines_respects_boundaries() {
        let toml = "[package]\nname = \"x\"\n\n[dependencies]\n# a comment\nfoo = { workspace = true }\nbar = \"1.0\"\n\n[lints]\nworkspace = true\n";
        let deps: Vec<_> = section_lines(toml, "[dependencies]").collect();
        assert_eq!(
            deps,
            vec![(6, "foo = { workspace = true }"), (7, "bar = \"1.0\"")]
        );
        assert_eq!(
            section_lines(toml, "[lints]").collect::<Vec<_>>(),
            vec![(10, "workspace = true")]
        );
    }

    #[test]
    fn live_workspace_is_hygienic() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check(&root);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
