//! Pass 2 — workspace hygiene.
//!
//! Uniformity rules that keep the workspace's lint policy and
//! dependency graph centralised, checked for every member crate's
//! manifest:
//!
//! * `workspace-lints` — `Cargo.toml` has a `[lints]` section with
//!   `workspace = true`;
//! * `workspace-dep` — every `[dependencies]`/`[dev-dependencies]`
//!   entry inherits from `[workspace.dependencies]` (`workspace =
//!   true`), so versions and vendor substitutions live in exactly one
//!   place.
//!
//! The lint policy itself (`missing_docs`, `unsafe_code = "forbid"`)
//! lives in the root manifest's `[workspace.lints]`, so the compiler
//! enforces it on every crate that opts in.

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
