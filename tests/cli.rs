//! Integration test for the `vqoe` operator CLI: the full file-based
//! pipeline — generate → capture → extract-gt / train → assess — run as
//! a real subprocess against a temp directory.

use std::path::{Path, PathBuf};
use std::process::Command;

fn vqoe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vqoe"))
}

fn run(dir: &Path, args: &[&str]) -> String {
    let out = vqoe()
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn vqoe");
    assert!(
        out.status.success(),
        "vqoe {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stderr).to_string()
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vqoe_cli_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

fn line_count(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .expect("read file")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

#[test]
fn full_pipeline_runs_and_produces_consistent_files() {
    let dir = workdir("full");

    // generate an encrypted handset corpus + capture it for one subscriber
    run(
        &dir,
        &[
            "generate",
            "--kind",
            "encrypted",
            "--sessions",
            "5",
            "--seed",
            "11",
            "--out",
            "traces.jsonl",
        ],
    );
    assert_eq!(line_count(&dir.join("traces.jsonl")), 5);
    run(
        &dir,
        &[
            "capture",
            "--traces",
            "traces.jsonl",
            "--encrypted",
            "--subscriber",
            "1",
            "--out",
            "weblogs.jsonl",
        ],
    );
    assert!(line_count(&dir.join("weblogs.jsonl")) > 50);

    // train a tiny model and assess the encrypted stream
    run(
        &dir,
        &[
            "train",
            "--cleartext",
            "300",
            "--adaptive",
            "150",
            "--seed",
            "3",
            "--out",
            "model.json",
        ],
    );
    assert!(dir.join("model.json").metadata().unwrap().len() > 10_000);
    let log = run(
        &dir,
        &[
            "assess",
            "--model",
            "model.json",
            "--weblogs",
            "weblogs.jsonl",
            "--out",
            "assessments.jsonl",
        ],
    );
    assert!(log.contains("assessed"), "log: {log}");
    let n = line_count(&dir.join("assessments.jsonl"));
    assert!((4..=6).contains(&n), "expected ~5 assessments, got {n}");

    // every assessment line parses and carries a MOS on the 1–5 scale
    let content = std::fs::read_to_string(dir.join("assessments.jsonl")).unwrap();
    for line in content.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
        let mos = v["qoe"]["mos"].as_f64().expect("mos field");
        assert!((1.0..=5.0).contains(&mos));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cleartext_ground_truth_extraction_via_cli() {
    let dir = workdir("gt");
    run(
        &dir,
        &[
            "generate",
            "--kind",
            "cleartext",
            "--sessions",
            "15",
            "--seed",
            "12",
            "--out",
            "traces.jsonl",
        ],
    );
    run(
        &dir,
        &[
            "capture",
            "--traces",
            "traces.jsonl",
            "--out",
            "weblogs.jsonl",
        ],
    );
    run(
        &dir,
        &[
            "extract-gt",
            "--weblogs",
            "weblogs.jsonl",
            "--out",
            "gt.jsonl",
        ],
    );
    assert_eq!(line_count(&dir.join("gt.jsonl")), 15);
    // Each extracted session carries a 16-char session id.
    let content = std::fs::read_to_string(dir.join("gt.jsonl")).unwrap();
    for line in content.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert_eq!(v["session_id"].as_str().unwrap().len(), 16);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_and_missing_flags_fail_cleanly() {
    let out = vqoe().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = vqoe().args(["generate"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --out"));

    // A flag the command does not take is a usage error, not a silent
    // default: a typo, a flag from another command, a removed knob.
    let assess = ["assess", "--model", "m.json", "--weblogs", "w.jsonl"];
    let cases: [(&[&str], &str); 3] = [
        (
            &[&assess[..], &["--out", "o.jsonl", "--wokers", "2"]].concat(),
            "--wokers for assess",
        ),
        (
            &[
                "generate",
                "--kind",
                "encrypted",
                "--sessions",
                "4",
                "--seed",
                "3",
                "--out",
                "x",
                "--bogus-flag",
                "7",
            ],
            "--bogus-flag for generate",
        ),
        (
            &[&assess[..], &["--out", "o.jsonl", "--queue-depth", "4"]].concat(),
            "--queue-depth for assess",
        ),
    ];
    for (args, flag) in cases {
        let out = vqoe().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }

    // A chaos rate outside [0, 1] is a usage error, caught before the
    // model is read: NaN and negatives would silently run clean, and
    // rates above 1 would be clamped.
    for rate in ["NaN", "-0.5", "7"] {
        let args = [&assess[..], &["--out", "o.jsonl", "--chaos", rate]].concat();
        let out = vqoe().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--chaos wants a rate in [0, 1]"),
            "{stderr}"
        );
    }

    // A flag the chosen path would never read is a usage error, also
    // caught before the model is read.
    let cases: [(&[&str], &str); 4] = [
        (&["--shards", "4"], "--shards sets the parallel engine's"),
        (
            &["--workers", "2", "--max-subscribers", "4"],
            "--max-subscribers caps the streaming assessor",
        ),
        (
            &["--checkpoint-at", "10"],
            "--checkpoint-at picks the record",
        ),
        (&["--chaos-seed", "9"], "--chaos-seed seeds the chaos tap"),
    ];
    for (extra, reason) in cases {
        let args = [&assess[..], &["--out", "o.jsonl"], extra].concat();
        let out = vqoe().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(reason), "{stderr}");
    }
}

#[test]
fn help_exits_zero() {
    let out = vqoe().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn metrics_doc_is_current() {
    // docs/METRICS.md is generated output: `vqoe metrics-doc` must
    // reproduce the committed file byte for byte. On drift, regenerate
    // with `vqoe metrics-doc --out docs/METRICS.md`.
    let out = vqoe().arg("metrics-doc").output().expect("spawn vqoe");
    assert!(
        out.status.success(),
        "vqoe metrics-doc failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let generated = String::from_utf8(out.stdout).expect("metrics-doc emits UTF-8");
    let committed_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
    let committed = std::fs::read_to_string(committed_path).expect("read docs/METRICS.md");
    assert_eq!(
        generated, committed,
        "docs/METRICS.md is stale; regenerate with `vqoe metrics-doc --out docs/METRICS.md`"
    );
}

#[test]
fn corpus_pack_unpack_round_trips_and_assess_sniffs_both() {
    let dir = workdir("corpus");
    run(
        &dir,
        &[
            "generate",
            "--kind",
            "encrypted",
            "--sessions",
            "4",
            "--seed",
            "21",
            "--out",
            "traces.jsonl",
        ],
    );
    run(
        &dir,
        &[
            "capture",
            "--traces",
            "traces.jsonl",
            "--encrypted",
            "--seed",
            "3",
            "--out",
            "weblogs.jsonl",
        ],
    );

    // pack → unpack must reproduce the JSONL byte for byte.
    let err = run(
        &dir,
        &[
            "corpus",
            "pack",
            "--weblogs",
            "weblogs.jsonl",
            "--out",
            "weblogs.vqwl",
        ],
    );
    assert!(err.contains("packed"), "{err}");
    run(
        &dir,
        &[
            "corpus",
            "unpack",
            "--corpus",
            "weblogs.vqwl",
            "--out",
            "roundtrip.jsonl",
        ],
    );
    assert_eq!(
        std::fs::read(dir.join("weblogs.jsonl")).unwrap(),
        std::fs::read(dir.join("roundtrip.jsonl")).unwrap(),
        "corpus pack/unpack must be lossless at the byte level"
    );

    // assess sniffs the format: both encodings yield identical output.
    run(
        &dir,
        &[
            "train",
            "--cleartext",
            "60",
            "--adaptive",
            "40",
            "--seed",
            "5",
            "--out",
            "model.json",
        ],
    );
    for (weblogs, out) in [
        ("weblogs.jsonl", "out_json.jsonl"),
        ("weblogs.vqwl", "out_bin.jsonl"),
    ] {
        run(
            &dir,
            &[
                "assess",
                "--model",
                "model.json",
                "--weblogs",
                weblogs,
                "--out",
                out,
                "--workers",
                "2",
            ],
        );
    }
    assert_eq!(
        std::fs::read(dir.join("out_json.jsonl")).unwrap(),
        std::fs::read(dir.join("out_bin.jsonl")).unwrap(),
        "assessments must not depend on the weblog encoding"
    );

    // An entry the format cannot carry is refused, naming the record,
    // and no corpus is written.
    let mut entries: Vec<vqoe_telemetry::WeblogEntry> =
        vqoe_telemetry::read_jsonl(&dir.join("weblogs.jsonl")).expect("read weblogs");
    entries[1].host = "h".repeat(70_000);
    vqoe_telemetry::write_jsonl(&dir.join("long.jsonl"), &entries).expect("write weblogs");
    let out = vqoe()
        .current_dir(&dir)
        .args([
            "corpus",
            "pack",
            "--weblogs",
            "long.jsonl",
            "--out",
            "long.vqwl",
        ])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "oversized host packed: {err}");
    assert!(err.contains("record 1: host is 70000 bytes"), "{err}");
    assert!(!dir.join("long.vqwl").exists());

    // A bad verb fails cleanly.
    let out = vqoe()
        .current_dir(&dir)
        .args(["corpus", "shrink"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("pack|unpack"));
    let _ = std::fs::remove_dir_all(&dir);
}
