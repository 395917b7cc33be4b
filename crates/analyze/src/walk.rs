//! Deterministic file discovery for the lint passes.
//!
//! Everything is sorted so diagnostics come out in the same order on
//! every run and every machine — an analyzer that lints the workspace
//! for determinism had better be deterministic itself.

use std::fs;
use std::path::{Path, PathBuf};

/// All `.rs` files under `dir`, recursively, in sorted path order.
/// `target/` subtrees are skipped; unreadable directories are treated
/// as empty (a linter reports on code, it does not crash on I/O).
pub fn rust_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    collect(dir, &mut out);
    out.sort();
    out
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Crate source directories: every `crates/<name>` directory, as
/// `(name, dir)` pairs in sorted name order. No `Cargo.toml` is
/// required — the line-level passes scan fixture trees that carry bare
/// `src/` layouts; checks that read manifests skip the directories
/// without one.
pub fn crate_dirs(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return out;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        if dir.is_dir() {
            if let Some(name) = dir.file_name().and_then(|n| n.to_str()) {
                out.push((name.to_string(), dir.clone()));
            }
        }
    }
    out.sort();
    out
}

/// `path` relative to `root`, with forward slashes, for diagnostics.
pub fn rel(root: &Path, path: &Path) -> String {
    let s = path.strip_prefix(root).unwrap_or(path).to_string_lossy();
    s.replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_of_this_crate_are_found_sorted() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let files = rust_sources(&src);
        assert!(files.iter().any(|f| f.ends_with("lexer.rs")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    #[test]
    fn member_listing_includes_this_crate() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let members = crate_dirs(&root);
        assert!(members.iter().any(|(n, _)| n == "analyze"));
        assert!(members.iter().any(|(n, _)| n == "telemetry"));
    }

    #[test]
    fn missing_directory_yields_no_sources() {
        assert!(rust_sources(Path::new("/nonexistent/nowhere")).is_empty());
    }
}
