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
fn damaged_model_files_are_rejected() {
    use vqoe_core::QoeMonitor;
    let dir = workdir("damaged");
    run(
        &dir,
        &[
            "generate",
            "--kind",
            "encrypted",
            "--sessions",
            "2",
            "--seed",
            "4",
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
            "--out",
            "weblogs.jsonl",
        ],
    );
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
    let json = std::fs::read_to_string(dir.join("model.json")).unwrap();
    let trained = QoeMonitor::from_json(&json).expect("a trained model loads");
    assert_eq!(trained.to_json().unwrap(), json);

    // The first leaf with its first class probability cut out.
    let probs = json.find("\"probs\":[").unwrap() + "\"probs\":[".len();
    let comma = probs + json[probs..].find(',').unwrap();
    let mut short_leaf = json.clone();
    short_leaf.replace_range(probs..=comma, "");
    let damaged = [
        (
            "selected index 999",
            json.replacen("\"selected_indices\":[", "\"selected_indices\":[999,", 1),
        ),
        // Every root's left child is node 1; 0 is the root itself.
        (
            "root's left child 0",
            json.replacen("\"left\":1,", "\"left\":0,", 1),
        ),
        ("short leaf", short_leaf),
    ];
    for (what, text) in damaged {
        assert_ne!(text, json, "{what}: the damage must apply");
        assert!(QoeMonitor::from_json(&text).is_err(), "{what} loads");
        std::fs::write(dir.join("damaged.json"), &text).unwrap();
        for command in ["assess", "replay"] {
            let out = vqoe()
                .current_dir(&dir)
                .args([
                    command,
                    "--model",
                    "damaged.json",
                    "--weblogs",
                    "weblogs.jsonl",
                ])
                .args(["--out", "out.jsonl"])
                .output()
                .expect("spawn vqoe");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{what}, {command}: {stderr}");
            assert!(
                stderr.contains("parse model JSON"),
                "{what}, {command}: {stderr}"
            );
        }
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
    // default: a typo, a flag from another command, a removed knob. The
    // engine's flags belong to `replay` and the streaming assessor's to
    // `assess`, so a flag of the other mode is unknown too.
    let assess = [
        "assess",
        "--model",
        "missing-model.json",
        "--weblogs",
        "w.jsonl",
    ];
    let replay = [
        "replay",
        "--model",
        "missing-model.json",
        "--weblogs",
        "w.jsonl",
    ];
    let generate = [
        "generate",
        "--kind",
        "encrypted",
        "--sessions",
        "4",
        "--seed",
        "3",
    ];
    let cases: [(&[&str], &str); 10] = [
        (
            &[&assess[..], &["--out", "o.jsonl", "--wokers", "2"]].concat(),
            "--wokers for assess",
        ),
        (
            &[&generate[..], &["--out", "x", "--bogus-flag", "7"]].concat(),
            "--bogus-flag for generate",
        ),
        (
            &[&assess[..], &["--out", "o.jsonl", "--queue-depth", "4"]].concat(),
            "--queue-depth for assess",
        ),
        (
            &[&assess[..], &["--out", "o.jsonl", "--workers", "2"]].concat(),
            "--workers for assess",
        ),
        (
            &[&assess[..], &["--out", "o.jsonl", "--shards", "4"]].concat(),
            "--shards for assess",
        ),
        (
            &[&assess[..], &["--out", "o.jsonl", "--trace", "t.json"]].concat(),
            "--trace for assess",
        ),
        (
            &[&replay[..], &["--out", "o.jsonl", "--max-subscribers", "4"]].concat(),
            "--max-subscribers for replay",
        ),
        (
            &[&replay[..], &["--out", "o.jsonl", "--memory-budget", "5"]].concat(),
            "--memory-budget for replay",
        ),
        (
            &[
                &replay[..],
                &["--out", "o.jsonl", "--checkpoint", "ck.json"],
            ]
            .concat(),
            "--checkpoint for replay",
        ),
        (
            &[&replay[..], &["--out", "o.jsonl", "--alerts", "rules.toml"]].concat(),
            "--alerts for replay",
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

    // Flags that must or must not go together, and values outside their
    // type, are usage errors caught before any file is read (`missing-model.json`
    // does not exist). A restore takes its ingest config and budget
    // from the checkpoint, and admission only acts while a global
    // budget is set.
    let cases: [(&[&str], &str); 19] = [
        (
            &["--checkpoint-at", "10"],
            "--checkpoint-at requires --checkpoint",
        ),
        (
            &["--chaos-seed", "9"],
            "--chaos-seed requires --chaos or --chaos-profile",
        ),
        (&["--exemplars"], "--exemplars requires --metrics"),
        (
            &["--restore", "ck.json", "--max-subscribers", "1"],
            "--restore conflicts with --max-subscribers",
        ),
        (
            &["--restore", "ck.json", "--memory-budget", "1"],
            "--restore conflicts with --memory-budget",
        ),
        (
            &["--restore", "ck.json", "--subscriber-budget", "1"],
            "--restore conflicts with --subscriber-budget",
        ),
        (
            &["--restore", "ck.json", "--admission", "refuse"],
            "--restore conflicts with --admission",
        ),
        (
            &["--admission", "refuse"],
            "--admission requires --memory-budget",
        ),
        (
            &["--admission", "shed", "--memory-budget", "0"],
            "--memory-budget wants a positive byte count",
        ),
        (
            &["--subscriber-budget", "0"],
            "--subscriber-budget wants a positive byte count",
        ),
        (
            &["--max-subscribers", "0"],
            "--max-subscribers wants a positive count, got '0'",
        ),
        (
            &["--chaos-profile", "bogus"],
            "--chaos-profile must be mild|harsh|flood",
        ),
        (
            &["--chaos", "0.5", "--chaos-profile", "mild"],
            "--chaos conflicts with --chaos-profile",
        ),
        (
            &["--chaos", "0", "--chaos-profile", "mild"],
            "--chaos conflicts with --chaos-profile",
        ),
        (
            &["--admission", "bogus", "--memory-budget", "5"],
            "--admission must be shed|refuse",
        ),
        // A switch takes no value, a valued flag must have one, and a
        // flag is given once.
        (
            &["--metrics", "-", "--exemplars", "yes"],
            "expected a --flag, got 'yes'",
        ),
        (&["--max-subscribers"], "--max-subscribers wants a value"),
        // `--metrics -` prints on the status lines, which `--quiet`
        // silences.
        (
            &["--metrics", "-", "--quiet"],
            "--metrics - prints on the status lines",
        ),
        (
            &["--checkpoint", "a.json", "--checkpoint", "b.json"],
            "--checkpoint is given twice",
        ),
    ];
    for (extra, reason) in cases {
        let args = [&assess[..], &["--out", "o.jsonl"], extra].concat();
        let out = vqoe().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(reason), "{stderr}");
        assert!(stderr.contains("commands:"), "no usage text: {stderr}");
    }
    for (extra, reason) in [
        (&["--chaos-profile", "bogus"][..], "--chaos-profile must be"),
        (&["--workers", "two"], "--workers wants a number, got 'two'"),
        (&["--shards"], "--shards wants a value"),
        (
            &["--shards", "0"],
            "--shards wants a positive count, got '0'",
        ),
    ] {
        let args = [&replay[..], &["--out", "o.jsonl"], extra].concat();
        let out = vqoe().args(&args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(reason));
    }

    // The same rules hold for every command: a trailing valued flag
    // without its value, and a repeated flag, write nothing.
    let dir = workdir("usage");
    for (extra, reason) in [
        (&["--out"][..], "--out wants a value"),
        (
            &["--out", "a.jsonl", "--out", "b.jsonl"],
            "--out is given twice",
        ),
    ] {
        let args = [&generate[..], extra].concat();
        let out = vqoe()
            .current_dir(&dir)
            .args(&args)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(reason));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "vqoe {args:?} wrote a file"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn train_rejects_an_empty_corpus_before_training() {
    let dir = workdir("train_zero");
    for flag in ["--cleartext", "--adaptive"] {
        let out = vqoe()
            .current_dir(&dir)
            .args(["train", flag, "0", "--out", "model.json"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(2), "vqoe train {flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} wants a positive count, got '0'")),
            "{stderr}"
        );
        assert!(!stderr.contains("training on"), "{stderr}");
        assert!(!dir.join("model.json").exists(), "vqoe train {flag} 0");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn assess_prints_the_alerts_its_rules_raise() {
    let dir = workdir("alerts");
    run(
        &dir,
        &[
            "generate",
            "--kind",
            "encrypted",
            "--sessions",
            "6",
            "--seed",
            "11",
            "--out",
            "traces.jsonl",
        ],
    );
    // One subscriber per trace, so a global budget has several to shed.
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
    run(
        &dir,
        &[
            "train",
            "--cleartext",
            "120",
            "--adaptive",
            "60",
            "--seed",
            "3",
            "--out",
            "model.json",
        ],
    );
    std::fs::write(
        dir.join("rules.toml"),
        "[[rule]]\nname = \"shed-cap\"\nseries = \"shed_rate\"\n\
         kind = \"threshold\"\nmax = 0\nseverity = \"critical\"\n\
         [[rule]]\nname = \"shed-surge\"\nseries = \"shed_rate\"\n\
         kind = \"rate\"\nmax_delta = 0\n",
    )
    .expect("write rules");
    let assess = [
        "assess",
        "--model",
        "model.json",
        "--weblogs",
        "weblogs.jsonl",
        "--out",
        "assessments.jsonl",
        "--alerts",
        "rules.toml",
    ];
    let budgeted = [&assess[..], &["--memory-budget", "20000"]].concat();
    // The full lines, as the alerting code printed them before it moved
    // into vqoe-core: a critical alert at the default level...
    let cap = "alert: shed-cap [critical]: threshold condition met on series shed_rate \
               at window 0 (value 4.000)\n";
    let surge = "alert: shed-surge [warning]: rate condition met on series shed_rate \
                 at window 1 (value 1.000)\n";
    let log = run(&dir, &budgeted);
    assert!(log.contains(cap), "log: {log}");
    assert!(!log.contains("shed-surge"), "log: {log}");
    // ...and a warning only under --verbose.
    let log = run(&dir, &[&budgeted[..], &["--verbose"]].concat());
    assert!(log.contains(cap) && log.contains(surge), "log: {log}");
    // Unbudgeted, nothing sheds and the rules stay silent.
    let log = run(&dir, &assess);
    assert!(!log.contains("alert:"), "log: {log}");
    // A series nothing samples is a rules-file error, not a rule that
    // can never fire.
    std::fs::write(
        dir.join("rules.toml"),
        "[[rule]]\nname = \"shed-cap\"\nseries = \"shed_rat\"\n\
         kind = \"threshold\"\nmax = 0\n",
    )
    .expect("write rules");
    let out = vqoe()
        .current_dir(&dir)
        .args(&budgeted)
        .output()
        .expect("spawn vqoe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("parse alert rules: rules line 3: `series` must be"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
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
                "replay",
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

    // A host of any length packs, and unpacks byte for byte.
    let mut entries: Vec<vqoe_telemetry::WeblogEntry> =
        vqoe_telemetry::read_jsonl(&dir.join("weblogs.jsonl")).expect("read weblogs");
    entries[1].host = "h".repeat(70_000);
    vqoe_telemetry::write_jsonl(&dir.join("long.jsonl"), &entries).expect("write weblogs");
    run(
        &dir,
        &[
            "corpus",
            "pack",
            "--weblogs",
            "long.jsonl",
            "--out",
            "long.vqwl",
        ],
    );
    run(
        &dir,
        &[
            "corpus",
            "unpack",
            "--corpus",
            "long.vqwl",
            "--out",
            "long_roundtrip.jsonl",
        ],
    );
    assert_eq!(
        std::fs::read(dir.join("long.jsonl")).unwrap(),
        std::fs::read(dir.join("long_roundtrip.jsonl")).unwrap(),
        "a 70,000-byte host must survive pack/unpack"
    );

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

/// A workdir holding a 12-session encrypted capture (1,096 records, one
/// subscriber per trace) and a small model: the tap the checkpoint
/// tests cut at record 500.
fn restore_workdir(tag: &str) -> PathBuf {
    let dir = workdir(tag);
    for args in [
        &[
            "generate",
            "--kind",
            "encrypted",
            "--sessions",
            "12",
            "--seed",
            "11",
            "--out",
            "traces.jsonl",
        ][..],
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
        &[
            "train",
            "--cleartext",
            "120",
            "--adaptive",
            "60",
            "--seed",
            "3",
            "--out",
            "model.json",
        ],
    ] {
        run(&dir, args);
    }
    assert_eq!(line_count(&dir.join("weblogs.jsonl")), 1096);
    dir
}

/// `vqoe assess` on the restore workdir's tap, plus `extra` flags.
fn assess_tap(dir: &Path, out: &str, extra: &[&str]) -> String {
    let base = [
        "assess",
        "--model",
        "model.json",
        "--weblogs",
        "weblogs.jsonl",
        "--out",
        out,
    ];
    run(dir, &[&base[..], extra].concat())
}

#[test]
fn kill_and_restore_resume_the_assessments_and_the_metrics() {
    let dir = restore_workdir("restore_metrics");
    let read = |name: &str| std::fs::read(dir.join(name)).expect("read output");
    for extra in [&[][..], &["--exemplars"]] {
        let cut = [
            &["--checkpoint", "ck.json", "--checkpoint-at", "500"][..],
            extra,
        ]
        .concat();
        assess_tap(
            &dir,
            "whole.jsonl",
            &[&cut[..], &["--metrics", "m"]].concat(),
        );
        let log = assess_tap(
            &dir,
            "resumed.jsonl",
            &[&["--restore", "ck.json", "--metrics", "m2"][..], extra].concat(),
        );
        assert!(!log.contains("carries no metrics"), "{log}");
        assert_eq!(
            read("m.json"),
            read("m2.json"),
            "snapshots differ {extra:?}"
        );
        assert!(line_count(&dir.join("resumed.jsonl")) > 0);
        assert_eq!(read("whole.jsonl"), read("resumed.jsonl"), "{extra:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restoring_a_checkpoint_without_metrics_says_where_the_counters_start() {
    let dir = restore_workdir("restore_no_metrics");
    let cut = ["--checkpoint", "ck.json", "--checkpoint-at", "500"];
    assess_tap(&dir, "whole.jsonl", &cut);
    let restore = ["--restore", "ck.json"];
    let log = assess_tap(
        &dir,
        "resumed.jsonl",
        &[&restore[..], &["--metrics", "m"]].concat(),
    );
    assert!(
        log.contains(
            "checkpoint ck.json carries no metrics: the stable counters count from \
             record 500, not from the start of the tap"
        ),
        "{log}"
    );
    // Without --metrics there are no counters to speak of.
    let log = assess_tap(&dir, "resumed.jsonl", &restore);
    assert!(!log.contains("carries no metrics"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restoring_onto_a_tap_shorter_than_the_cut_fails() {
    let dir = restore_workdir("restore_short");
    let cut = ["--checkpoint", "ck.json", "--checkpoint-at", "500"];
    assess_tap(&dir, "whole.jsonl", &cut);
    // A tap shorter than the cut cannot be the one the checkpoint came
    // from: the restore fails and names both counts.
    let tap = std::fs::read_to_string(dir.join("weblogs.jsonl")).expect("read tap");
    let head: String = tap.lines().take(300).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("short.jsonl"), head).expect("write short tap");
    let out = vqoe()
        .current_dir(&dir)
        .args([
            "assess",
            "--model",
            "model.json",
            "--weblogs",
            "short.jsonl",
            "--out",
            "short_out.jsonl",
            "--restore",
            "ck.json",
        ])
        .output()
        .expect("spawn vqoe");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("ck.json was cut at record 500, but the tap has only 300 records"),
        "{stderr}"
    );
    assert!(!dir.join("short_out.jsonl").exists(), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A workdir with a small model and three damaged copies of a 4-session
/// encrypted capture: two records swapped (`unsorted.jsonl` and
/// `.vqwl`), line 7 garbled (`garbled.jsonl`) and a packed corpus cut
/// mid-record (`cut.vqwl`). Returns the message each must fail with.
fn damaged_tap_workdir(tag: &str) -> (PathBuf, [(&'static str, String); 4]) {
    use vqoe_telemetry::{read_jsonl, write_jsonl, BinaryCorpus, WeblogEntry};
    let dir = workdir(tag);
    for args in [
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
        ][..],
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
    ] {
        run(&dir, args);
    }
    let mut entries: Vec<WeblogEntry> = read_jsonl(&dir.join("weblogs.jsonl")).expect("read tap");
    // The first strictly rising pair from record 20 on, swapped.
    let i = (20..entries.len() - 1)
        .find(|&i| entries[i].timestamp < entries[i + 1].timestamp)
        .expect("a rising pair");
    let (earlier, later) = (entries[i].timestamp, entries[i + 1].timestamp);
    let cut = BinaryCorpus::pack(&entries).as_bytes().to_vec();
    let cut = &cut[..cut.len() - 3];
    std::fs::write(dir.join("cut.vqwl"), cut).expect("write cut corpus");
    let truncated = BinaryCorpus::from_bytes(cut.to_vec())
        .expect("header intact")
        .decode_all()
        .expect_err("a cut corpus fails");
    entries.swap(i, i + 1);
    write_jsonl(&dir.join("unsorted.jsonl"), &entries).expect("write unsorted tap");
    BinaryCorpus::pack(&entries)
        .write_file(&dir.join("unsorted.vqwl"))
        .expect("write unsorted corpus");
    let tap = std::fs::read_to_string(dir.join("weblogs.jsonl")).expect("read tap");
    let garbled: String = tap
        .lines()
        .enumerate()
        .map(|(n, l)| format!("{}\n", if n == 6 { "{\"timestamp\":" } else { l }))
        .collect();
    std::fs::write(dir.join("garbled.jsonl"), garbled).expect("write garbled tap");
    let inversion = format!(
        "record {} at {}us is earlier than record {i} at {}us",
        i + 1,
        earlier.as_micros(),
        later.as_micros()
    );
    let expected = [
        ("unsorted.jsonl", format!("unsorted.jsonl: {inversion}")),
        ("unsorted.vqwl", format!("unsorted.vqwl: {inversion}")),
        ("garbled.jsonl", "garbled.jsonl: line 7: ".to_string()),
        ("cut.vqwl", format!("cut.vqwl: {truncated}")),
    ];
    (dir, expected)
}

#[test]
fn assess_and_replay_reject_a_damaged_tap_and_write_no_output() {
    let (dir, expected) = damaged_tap_workdir("damaged_tap");
    for (weblogs, message) in &expected {
        for mode in [&["assess"][..], &["replay", "--workers", "2"]] {
            let out = vqoe()
                .current_dir(&dir)
                .args(mode)
                .args(["--model", "model.json", "--weblogs", weblogs])
                .args(["--out", "out.jsonl"])
                .output()
                .expect("spawn vqoe");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{mode:?} {weblogs}: {stderr}");
            assert!(
                stderr.contains(&format!("error: {message}")),
                "{mode:?} {weblogs}: want {message:?}, got {stderr}"
            );
            assert!(!dir.join("out.jsonl").exists(), "{mode:?} {weblogs}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Peak resident memory (VmHWM, in bytes) of one `vqoe` run, read only
/// from the child's own `/proc/<pid>/status`, polled every 5 ms until
/// it exits.
fn peak_rss(dir: &Path, args: &[&str]) -> u64 {
    let mut child = vqoe()
        .current_dir(dir)
        .args(args)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn vqoe");
    let status = format!("/proc/{}/status", child.id());
    let mut peak_kb = 0u64;
    loop {
        if let Ok(text) = std::fs::read_to_string(&status) {
            let hwm = text
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok());
            peak_kb = peak_kb.max(hwm.unwrap_or(0));
        }
        if let Some(exit) = child.try_wait().expect("wait for vqoe") {
            assert!(exit.success(), "vqoe {args:?} failed");
            return peak_kb * 1024;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Memory soak (run by `scripts/soak.sh`): `assess` and packed `replay`
/// on a 1× and a 4× one-subscriber capture, where sessions close as
/// they end, so the open state stays small whatever the file size. The
/// peak may grow by at most the stated bytes per extra record: about
/// nothing for JSONL, read a line at a time; the packed bytes
/// (~70 B a record) and little more for VQWL, read in place.
#[test]
#[ignore]
fn cli_memory_follows_open_state_not_file_size() {
    let dir = workdir("memory_soak");
    run(
        &dir,
        &[
            "train",
            "--cleartext",
            "300",
            "--adaptive",
            "200",
            "--seed",
            "7",
            "--out",
            "model.json",
        ],
    );
    let mut records = Vec::new();
    for (tag, sessions) in [("1x", "250"), ("4x", "1000")] {
        let traces = format!("traces_{tag}.jsonl");
        let jsonl = format!("tap_{tag}.jsonl");
        run(
            &dir,
            &[
                "generate",
                "--kind",
                "encrypted",
                "--sessions",
                sessions,
                "--seed",
                "21",
                "--out",
                &traces,
            ],
        );
        run(
            &dir,
            &[
                "capture",
                "--traces",
                &traces,
                "--encrypted",
                "--subscriber",
                "1",
                "--seed",
                "5",
                "--out",
                &jsonl,
            ],
        );
        let vqwl = format!("tap_{tag}.vqwl");
        run(
            &dir,
            &["corpus", "pack", "--weblogs", &jsonl, "--out", &vqwl],
        );
        records.push(line_count(&dir.join(&jsonl)) as f64);
    }
    let cases: [(&[&str], &str, f64); 3] = [
        (&["assess"], "jsonl", 40.0),
        (&["assess"], "vqwl", 100.0),
        (&["replay", "--workers", "2"], "vqwl", 150.0),
    ];
    let mut readings = Vec::new();
    for (mode, ext, bound) in cases {
        let peaks: Vec<f64> = ["1x", "4x"]
            .iter()
            .map(|tag| {
                let weblogs = format!("tap_{tag}.{ext}");
                let args = [mode, &["--model", "model.json", "--weblogs", &weblogs]].concat();
                peak_rss(&dir, &[&args[..], &["--out", "out.jsonl"]].concat()) as f64
            })
            .collect();
        let growth = (peaks[1] - peaks[0]) / (records[1] - records[0]);
        let reading = format!(
            "{mode:?} {ext}: {:.1} -> {:.1} MB, {growth:.0} B a record (bound {bound})",
            peaks[0] / 1e6,
            peaks[1] / 1e6
        );
        eprintln!("{reading}");
        readings.push((growth <= bound, reading));
    }
    assert!(readings.iter().all(|(ok, _)| *ok), "{readings:#?}");
    let _ = std::fs::remove_dir_all(&dir);
}
