//! `repro` rejects a misspelt flag or an unknown experiment id before
//! it builds the reproduction context: usage on stderr, exit 2, and no
//! report written under `--out`.

use std::process::Command;

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
