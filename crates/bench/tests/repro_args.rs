//! `repro`'s arguments: a misspelt flag or an unknown experiment id is
//! rejected before the reproduction context is built (usage on stderr,
//! exit 2, and no report written under `--out`), and the scale it
//! announces does not depend on the order of its flags.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn unknown_flags_and_experiments_exit_2_before_any_work() {
    let dir = std::env::temp_dir().join(format!("vqoe_repro_args_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create --out directory");
    let out = dir.to_str().expect("utf-8 temp path");
    for (args, reason) in [
        (
            vec!["--smoke", "--sesions", "800", "tab1", "--out", out],
            "unknown flag --sesions",
        ),
        (
            vec!["--smoke", "tab1", "tab99", "--out", out],
            "unknown experiment tab99",
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(&args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(!stderr.contains("building"), "{args:?}: {stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("read --out").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The first stderr line of `repro args…`: the scale the context is
/// about to be built at. The child is killed once it has printed it.
fn announced_scale(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut line = String::new();
    BufReader::new(stderr)
        .read_line(&mut line)
        .expect("read stderr");
    let _ = child.kill();
    let _ = child.wait();
    line
}

#[test]
fn smoke_sets_the_base_scale_wherever_it_stands() {
    let before = announced_scale(&["--sessions", "1200", "--seed", "9", "--smoke", "tab1"]);
    let after = announced_scale(&["--smoke", "--sessions", "1200", "--seed", "9", "tab1"]);
    assert!(
        before.starts_with(
            "building reproduction context: 1200 cleartext + 450 adaptive sessions, seed 9"
        ),
        "{before}"
    );
    assert_eq!(before, after);
    let smoke = announced_scale(&["tab1", "--smoke"]);
    assert!(
        smoke.starts_with("building reproduction context: 800 cleartext + 400 adaptive"),
        "{smoke}"
    );
}
