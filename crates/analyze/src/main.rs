//! `vqoe-analyze` — run the static-analysis passes that clippy cannot
//! express over the workspace and exit nonzero on any violation.
//!
//! ```text
//! vqoe-analyze [--root <dir>]
//! ```
//!
//! Without `--root`, the workspace root is found by walking up from the
//! current directory to the first `Cargo.toml` declaring `[workspace]`,
//! so the gate works from any crate directory.
//!
//! Exit codes: 0 when no finding remains, 1 when one does, 2 on a
//! usage error. An
//! `analyze:allow(<rule>)` marker is the one way to suppress a finding.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vqoe_analyze::{gate_fails, report, run_all};

const USAGE: &str = "usage: vqoe-analyze [--root <dir>]";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root expects a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(root) = root.or_else(find_workspace_root) else {
        eprintln!("vqoe-analyze: no workspace root found (no ancestor Cargo.toml with [workspace]); pass --root");
        return ExitCode::from(2);
    };

    let findings = run_all(&root);
    print!("{}", report::render_text(&findings));
    if gate_fails(&findings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("vqoe-analyze: {problem}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Nearest ancestor of the current directory whose `Cargo.toml`
/// declares `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|text| text.contains("[workspace]"))
}
