//! `vqoe` — the operator command line.
//!
//! File-based pipeline stages so each step of the paper's workflow can
//! be run, inspected and re-run independently:
//!
//! ```text
//! # simulate an operator corpus (cleartext / adaptive / encrypted shape)
//! vqoe generate --kind cleartext --sessions 5000 --seed 1 --out traces.jsonl
//!
//! # render traces into proxy weblogs (add --encrypted for the TLS view)
//! vqoe capture --traces traces.jsonl --encrypted --out weblogs.jsonl
//!
//! # reverse-engineer ground truth from cleartext weblogs (§3.2)
//! vqoe extract-gt --weblogs weblogs.jsonl --out ground_truth.jsonl
//!
//! # train the full framework and save the model
//! vqoe train --cleartext 4000 --adaptive 1500 --seed 2016 --out model.json
//!
//! # assess a subscriber's weblog stream with a trained model
//! vqoe assess --model model.json --weblogs weblogs.jsonl --out assessments.jsonl
//!
//! # pack weblogs into the binary replay format (and back)
//! vqoe corpus pack --weblogs weblogs.jsonl --out weblogs.vqwl
//! vqoe corpus unpack --corpus weblogs.vqwl --out weblogs.jsonl
//! ```
//!
//! `assess` sniffs its `--weblogs` input: a packed [`BinaryCorpus`]
//! replays without serde on the hot path, a JSONL file decodes as
//! before — the resulting report is bit-identical either way.

use std::path::{Path, PathBuf};

use rand::SeedableRng;
use vqoe_core::{
    generate_sequential_traces, generate_traces, standard_alert_engine, AdmissionPolicy,
    BudgetConfig, DatasetSpec, EngineConfig, Fidelity, IngestPipeline, IngestReport,
    OnlineAssessor, OnlineCheckpoint, PipelineMetrics, QoeMonitor, TrainConfig, TrainingConfig,
    ALERT_WINDOW_RECORDS,
};
use vqoe_obs::{
    buckets, parse_rules, AlertSeverity, Clock, MetricClass, Registry, ReportLevel, Reporter,
    StageSpan, TraceConfig,
};
use vqoe_player::SessionTrace;
use vqoe_simnet::time::Instant;
use vqoe_telemetry::{
    apply_chaos, capture_session, extract_sessions, generate_subscriber_flood, merge_streams,
    read_jsonl, write_jsonl, BinaryCorpus, CaptureConfig, ChaosConfig, ChaosProfile, IngestConfig,
    WeblogEntry,
};

/// Wall-clock [`Clock`] for CLI stage timing. The `vqoe` binary is an
/// allowlisted non-deterministic surface: its readings feed
/// `Runtime`-class histograms only, never the stable JSON snapshot.
/// The deterministic crates must use `vqoe_obs::SimClock` instead.
struct WallClock {
    origin: std::time::Instant, // analyze:allow(raw-wall-clock)
}

impl WallClock {
    fn new() -> WallClock {
        WallClock {
            // analyze:allow(wall-clock) analyze:allow(raw-wall-clock)
            origin: std::time::Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    fn is_deterministic(&self) -> bool {
        false
    }
}

/// Reporter level from `--quiet` / `--verbose` (quiet wins).
fn reporter(flags: &Flags) -> Reporter {
    Reporter::new(if flags.flag("quiet") {
        ReportLevel::Quiet
    } else if flags.flag("verbose") {
        ReportLevel::Verbose
    } else {
        ReportLevel::Normal
    })
}

/// One `vqoe` command: its name as typed (a `corpus` verb included),
/// the flags it accepts and its entry point. [`USAGE`] lists exactly
/// these flags for each command (a unit test checks), and any other
/// flag is a usage error.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Flags),
}

const COMMANDS: [Command; 8] = [
    Command {
        name: "generate",
        flags: &["kind", "sessions", "seed", "out", "quiet"],
        run: generate,
    },
    Command {
        name: "capture",
        flags: &["traces", "encrypted", "subscriber", "seed", "out", "quiet"],
        run: capture,
    },
    Command {
        name: "extract-gt",
        flags: &["weblogs", "out", "quiet"],
        run: extract_gt,
    },
    Command {
        name: "train",
        flags: &["cleartext", "adaptive", "seed", "workers", "out", "quiet"],
        run: train,
    },
    Command {
        name: "assess",
        flags: &[
            "model",
            "weblogs",
            "out",
            "workers",
            "shards",
            "verbose",
            "chaos",
            "chaos-seed",
            "chaos-profile",
            "max-subscribers",
            "memory-budget",
            "subscriber-budget",
            "admission",
            "checkpoint",
            "checkpoint-at",
            "restore",
            "metrics",
            "exemplars",
            "trace",
            "alerts",
            "quiet",
        ],
        run: assess,
    },
    Command {
        name: "metrics-doc",
        flags: &["out", "quiet"],
        run: metrics_doc,
    },
    Command {
        name: "corpus pack",
        flags: &["weblogs", "out", "quiet"],
        run: corpus_pack,
    },
    Command {
        name: "corpus unpack",
        flags: &["corpus", "out", "quiet"],
        run: corpus_unpack,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        usage("no command given");
    };
    if matches!(first.as_str(), "--help" | "-h" | "help") {
        usage("");
    }
    // `corpus` carries a sub-verb before its flags.
    let (name, tail) = if first == "corpus" {
        let Some(verb) = args.get(1) else {
            usage("corpus wants a verb: pack or unpack");
        };
        if verb != "pack" && verb != "unpack" {
            usage(&format!("corpus verb must be pack|unpack, got '{verb}'"));
        }
        (format!("corpus {verb}"), &args[2..])
    } else {
        (first.clone(), &args[1..])
    };
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        usage(&format!("unknown command '{name}'"));
    };
    (command.run)(&Flags::parse(command, tail));
}

/// `vqoe corpus pack` — convert a JSONL weblog file into the packed
/// binary replay format.
fn corpus_pack(flags: &Flags) {
    let weblogs = flags.path("weblogs");
    let out = flags.path("out");
    let entries: Vec<WeblogEntry> = read_jsonl(&weblogs).unwrap_or_else(die(&weblogs));
    let corpus = BinaryCorpus::pack(&entries);
    corpus.write_file(&out).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "packed {} weblog entries into {} ({} bytes, {:.2}x vs JSONL)",
        corpus.len(),
        out.display(),
        corpus.as_bytes().len(),
        jsonl_size(&entries) as f64 / corpus.as_bytes().len().max(1) as f64,
    ));
}

/// `vqoe corpus unpack` — convert a packed corpus back to JSONL,
/// bit-identically.
fn corpus_unpack(flags: &Flags) {
    let packed = flags.path("corpus");
    let out = flags.path("out");
    let corpus = BinaryCorpus::read_file(&packed).unwrap_or_else(die(&packed));
    let entries = corpus.decode_all().unwrap_or_else(die(&packed));
    write_jsonl(&out, &entries).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "unpacked {} weblog entries to {}",
        entries.len(),
        out.display()
    ));
}

/// Serialized JSONL footprint of a weblog slice (for the pack ratio
/// status line only).
fn jsonl_size(entries: &[WeblogEntry]) -> usize {
    entries
        .iter()
        .map(|e| serde_json::to_string(e).map(|s| s.len() + 1).unwrap_or(0))
        .sum()
}

/// Read weblogs for `assess`, sniffing the on-disk format: a packed
/// [`BinaryCorpus`] decodes straight from its byte buffer (no serde on
/// the replay hot path); anything else parses as JSONL.
fn read_weblogs(path: &Path) -> Vec<WeblogEntry> {
    let bytes = std::fs::read(path).unwrap_or_else(die(path));
    if BinaryCorpus::sniff(&bytes) {
        let corpus = BinaryCorpus::from_bytes(bytes).unwrap_or_else(die(path));
        corpus.decode_all().unwrap_or_else(die(path))
    } else {
        read_jsonl(path).unwrap_or_else(die(path))
    }
}

struct Flags(Vec<(String, String)>);

impl Flags {
    /// Parse `args` as `command`'s flags; a flag it does not accept is
    /// a usage error, so a typo never runs with a default.
    fn parse(command: &Command, args: &[String]) -> Flags {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                usage(&format!("expected a --flag, got '{}'", args[i]));
            };
            if !command.flags.contains(&key) {
                usage(&format!("unknown flag --{key} for {}", command.name));
            }
            // Boolean flags have no value (next token is another flag or
            // the end).
            if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                out.push((key.to_string(), "true".to_string()));
                i += 1;
            } else {
                out.push((key.to_string(), args[i + 1].clone()));
                i += 2;
            }
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> &str {
        self.get(key)
            .unwrap_or_else(|| usage(&format!("missing --{key}")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("--{key} wants a number, got '{v}'"))),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn path(&self, key: &str) -> PathBuf {
        PathBuf::from(self.required(key))
    }
}

fn generate(flags: &Flags) {
    let sessions = flags.num("sessions", 1000usize);
    let seed = flags.num("seed", 2016u64);
    let kind = flags.get("kind").unwrap_or("cleartext");
    let out = flags.path("out");
    let traces: Vec<SessionTrace> = match kind {
        "cleartext" => generate_traces(
            &DatasetSpec::cleartext_default(sessions, seed),
            TrainConfig::auto(),
        ),
        "adaptive" => generate_traces(
            &DatasetSpec::adaptive_default(sessions, seed),
            TrainConfig::auto(),
        ),
        "encrypted" => {
            let spec = DatasetSpec {
                n_sessions: sessions,
                ..DatasetSpec::encrypted_default(seed)
            };
            generate_sequential_traces(&spec, 240.0)
        }
        other => usage(&format!(
            "--kind must be cleartext|adaptive|encrypted, got '{other}'"
        )),
    };
    write_jsonl(&out, &traces).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "wrote {} traces to {}",
        traces.len(),
        out.display()
    ));
}

fn capture(flags: &Flags) {
    let traces_path = flags.path("traces");
    let out = flags.path("out");
    let encrypted = flags.flag("encrypted");
    let seed = flags.num("seed", 7u64);
    // A sequential (instrumented-handset) corpus belongs to one
    // subscriber; a population corpus gives each session its own.
    let single_subscriber = flags.get("subscriber").map(|v| v.parse::<u64>());
    let traces: Vec<SessionTrace> = read_jsonl(&traces_path).unwrap_or_else(die(&traces_path));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut entries: Vec<WeblogEntry> = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let subscriber_id = match &single_subscriber {
            Some(Ok(id)) => *id,
            Some(Err(_)) => usage("--subscriber wants a number"),
            None => i as u64,
        };
        entries.extend(
            capture_session(
                t,
                &CaptureConfig {
                    encrypted,
                    subscriber_id,
                },
                &mut rng,
            )
            .unwrap_or_else(die(&traces_path)),
        );
    }
    entries.sort_by_key(|e| e.timestamp);
    write_jsonl(&out, &entries).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "wrote {} weblog entries ({}) to {}",
        entries.len(),
        if encrypted { "encrypted" } else { "cleartext" },
        out.display()
    ));
}

fn extract_gt(flags: &Flags) {
    let weblogs = flags.path("weblogs");
    let out = flags.path("out");
    let entries: Vec<WeblogEntry> = read_jsonl(&weblogs).unwrap_or_else(die(&weblogs));
    let sessions = extract_sessions(&entries);
    write_jsonl(&out, &sessions).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "extracted ground truth for {} sessions to {}",
        sessions.len(),
        out.display()
    ));
}

fn train(flags: &Flags) {
    let out = flags.path("out");
    // `--workers 0` (the default) auto-sizes the training fan-out; any
    // count produces the byte-identical model.
    let config = TrainingConfig::builder()
        .cleartext_sessions(flags.num("cleartext", 4000usize))
        .adaptive_sessions(flags.num("adaptive", 1500usize))
        .seed(flags.num("seed", 2016u64))
        .workers(flags.num("workers", 0usize))
        .build()
        .unwrap_or_else(|e| usage(&format!("invalid training config: {e}")));
    let report = reporter(flags);
    report.normal(&format!(
        "training on {} cleartext + {} adaptive sessions (seed {}, {} workers) ...",
        config.cleartext_sessions,
        config.adaptive_sessions,
        config.seed,
        match config.train.workers {
            0 => "auto".to_string(),
            n => n.to_string(),
        }
    ));
    let monitor = QoeMonitor::train(&config);
    let json = monitor.to_json().unwrap_or_else(fail("serialize model"));
    std::fs::write(&out, json).unwrap_or_else(die(&out));
    report.normal(&format!(
        "model written to {} (stall features: {:?})",
        out.display(),
        monitor.stall_model.selected_names
    ));
}

fn assess(flags: &Flags) {
    let report_to = reporter(flags);
    let model_path = flags.path("model");
    let weblogs = flags.path("weblogs");
    let out = flags.path("out");
    let chaos = flags.num("chaos", 0.0f64);
    if !(0.0..=1.0).contains(&chaos) {
        usage(&format!("--chaos wants a rate in [0, 1], got '{chaos}'"));
    }
    let chaos_seed = flags.num("chaos-seed", 2016u64);
    // `--metrics PATH` (or `-` for stdout) turns on pipeline
    // instrumentation; the wall clock feeds Runtime-class CLI stage
    // histograms, which the stable JSON snapshot excludes by design.
    let metrics_path = flags.get("metrics").map(str::to_string);
    // `--exemplars` links the max sample of every chunk-size and
    // session-duration bucket back to the session (id + tick) that
    // produced it, in both exposition formats.
    let exemplars = flags.flag("exemplars");
    if exemplars && metrics_path.is_none() {
        usage("--exemplars annotates the metrics output; add --metrics PATH|-");
    }
    // A flag the chosen path would never read is an error, not a no-op.
    let engine = flags.get("workers").is_some();
    if flags.get("shards").is_some() && !engine {
        usage("--shards sets the parallel engine's shard count; add --workers N (0 = auto)");
    }
    if flags.get("max-subscribers").is_some() && engine {
        usage("--max-subscribers caps the streaming assessor; the engine admits every subscriber, so drop --workers");
    }
    if flags.get("checkpoint-at").is_some() && flags.get("checkpoint").is_none() {
        usage("--checkpoint-at picks the record to checkpoint at; add --checkpoint PATH");
    }
    if flags.get("chaos-seed").is_some()
        && flags.get("chaos").is_none()
        && flags.get("chaos-profile").is_none()
    {
        usage("--chaos-seed seeds the chaos tap; add --chaos RATE or --chaos-profile NAME");
    }
    // A restore takes its ingest config and budget from the checkpoint.
    if flags.get("restore").is_some() {
        for key in [
            "max-subscribers",
            "memory-budget",
            "subscriber-budget",
            "admission",
        ] {
            if flags.get(key).is_some() {
                usage(&format!(
                    "--{key} is fixed by the checkpoint --restore resumes from; drop it"
                ));
            }
        }
    } else if flags.get("admission").is_some() && flags.num("memory-budget", 0u64) == 0 {
        usage("--admission acts only while the global budget is full; add --memory-budget BYTES (> 0)");
    }
    let registry = Registry::new();
    let metrics = metrics_path.as_deref().map(|_| {
        if exemplars {
            PipelineMetrics::register_with_exemplars(&registry)
        } else {
            PipelineMetrics::register(&registry)
        }
    });
    let wall = WallClock::new();
    let stage_hist = |stage: &str| {
        registry.histogram(
            &format!("vqoe_core_cli_{stage}_wall_micros"),
            "wall-clock CLI stage latency in microseconds",
            MetricClass::Runtime,
            buckets::STAGE_MICROS,
        )
    };

    let read_hist = stage_hist("read");
    let assess_hist = stage_hist("assess");
    let write_hist = stage_hist("write");

    let read_span = StageSpan::start(&wall, &read_hist);
    let json = std::fs::read_to_string(&model_path).unwrap_or_else(die(&model_path));
    let monitor = QoeMonitor::from_json(&json).unwrap_or_else(fail("parse model JSON"));
    let mut entries: Vec<WeblogEntry> = read_weblogs(&weblogs);
    read_span.finish();
    // Tap arrival order: all subscribers interleaved by timestamp, as
    // the operator's proxy would deliver them.
    entries.sort_by_key(|e| e.timestamp);
    // `--chaos-profile` is the preset path (mild/harsh/flood, see the
    // ChaosProfile table); `--chaos RATE` stays as the raw dial. They
    // conflict rather than compose, so a preset means exactly its table.
    let profile = flags.get("chaos-profile").map(|name| {
        ChaosProfile::parse(name)
            .unwrap_or_else(|| usage("--chaos-profile must be mild|harsh|flood"))
    });
    if profile.is_some() && chaos > 0.0 {
        usage("--chaos and --chaos-profile are mutually exclusive");
    }
    let chaos_cfg: Option<ChaosConfig> = match profile {
        Some(p) => {
            if let Some(spec) = p.flood() {
                let start = entries
                    .first()
                    .map(|e| e.timestamp)
                    .unwrap_or(Instant::from_secs(0));
                let flood = generate_subscriber_flood(&spec, start, chaos_seed);
                report_to.normal(&format!(
                    "flood profile: injecting {} synthetic entries from {} flood subscribers",
                    flood.len(),
                    spec.subscribers
                ));
                entries = merge_streams(vec![entries, flood]);
            }
            Some(p.chaos())
        }
        None if chaos > 0.0 => Some(ChaosConfig::uniform(chaos)),
        None => None,
    };
    if let Some(cfg) = chaos_cfg {
        let (faulted, stats) = apply_chaos(&entries, &cfg, chaos_seed);
        report_to.normal(&format!(
            "chaos tap: {} -> {} entries \
             ({} dropped, {} duplicated, {} reordered, {} corrupted, {} streams cut)",
            stats.consumed,
            stats.emitted,
            stats.dropped,
            stats.duplicated,
            stats.reordered,
            stats.corrupted,
            stats.streams_cut
        ));
        entries = faulted;
    }

    let ingest_cfg = IngestConfig {
        max_open_subscribers: flags.num("max-subscribers", 65_536usize),
        ..IngestConfig::default()
    };
    // Memory budgets, admission policy and checkpoint/restore belong to
    // the streaming assessor (the batch engine never sheds, so the
    // knobs would be moot there).
    let budget = BudgetConfig {
        per_subscriber_bytes: flags.num("subscriber-budget", 0u64),
        global_bytes: flags.num("memory-budget", 0u64),
        admission: match flags.get("admission") {
            None => AdmissionPolicy::default(),
            Some(v) => AdmissionPolicy::parse(v)
                .unwrap_or_else(|| usage("--admission must be shed|refuse")),
        },
    };
    let checkpoint_path = flags.get("checkpoint").map(str::to_string);
    let checkpoint_at = flags.num("checkpoint-at", 0u64);
    let restore_path = flags.get("restore").map(str::to_string);
    let alerts_path = flags.get("alerts").map(str::to_string);
    let trace_path = flags.get("trace").map(str::to_string);
    if engine
        && (!budget.is_unlimited()
            || flags.get("admission").is_some()
            || checkpoint_path.is_some()
            || restore_path.is_some()
            || alerts_path.is_some())
    {
        usage(
            "--memory-budget/--subscriber-budget/--admission/--checkpoint/--restore/--alerts \
             need the streaming assessor; drop --workers",
        );
    }
    // Tracing records the engine's span structure (ingest through
    // reduce), so it needs the engine.
    if trace_path.is_some() && !engine {
        usage("--trace records the parallel engine's spans; add --workers N (0 = auto)");
    }
    // Alert rules parse before the (potentially long) assessment runs,
    // so a typo fails fast.
    let alert_rules = alerts_path.as_deref().map(|p| {
        let text = std::fs::read_to_string(p).unwrap_or_else(die(Path::new(p)));
        parse_rules(&text).unwrap_or_else(fail("parse alert rules"))
    });
    // `--workers N` routes through the sharded parallel engine (see
    // `vqoe_core::engine`); without it, the streaming assessor runs the
    // tap one entry at a time. Output is bit-identical either way.
    let assess_span = StageSpan::start(&wall, &assess_hist);
    let report: IngestReport = match flags.get("workers") {
        Some(_) => {
            let engine_cfg = EngineConfig {
                workers: flags.num("workers", 0usize),
                shards: flags.num("shards", EngineConfig::default().shards),
            };
            let mut pipeline = IngestPipeline::new(&monitor)
                .with_engine(engine_cfg)
                .with_ingest(ingest_cfg);
            if let Some(m) = &metrics {
                pipeline = pipeline.with_metrics(m.clone());
            }
            match &trace_path {
                Some(p) => {
                    let (report, trace) = pipeline.assess_traced(&entries, TraceConfig::default());
                    std::fs::write(p, trace.to_chrome_json())
                        .unwrap_or_else(die(Path::new(p.as_str())));
                    let jsonl_path = format!("{p}.jsonl");
                    std::fs::write(&jsonl_path, trace.to_jsonl())
                        .unwrap_or_else(die(Path::new(&jsonl_path)));
                    report_to.normal(&format!(
                        "trace written to {p} (Chrome trace events, {} spans, {} dropped) \
                         and {jsonl_path} (JSONL)",
                        trace.events().len(),
                        trace.dropped()
                    ));
                    report
                }
                None => pipeline.assess(&entries),
            }
        }
        None => {
            // Restore resumes the ingest clock where the checkpointed
            // process died: its config and budget are the checkpoint's
            // (the flags that would set them are rejected above), and
            // the first `records_ingested` entries are skipped.
            let (mut online, skip) = match &restore_path {
                Some(p) => {
                    let text =
                        std::fs::read_to_string(p).unwrap_or_else(die(Path::new(p.as_str())));
                    let ck =
                        OnlineCheckpoint::from_json(&text).unwrap_or_else(fail("parse checkpoint"));
                    if metrics.is_some() {
                        if let Some(snap) = &ck.metrics_snapshot {
                            registry
                                .absorb_snapshot(snap)
                                .unwrap_or_else(fail("absorb checkpoint metrics"));
                        }
                    }
                    let online = OnlineAssessor::restore(monitor, &ck)
                        .unwrap_or_else(fail("restore checkpoint"));
                    report_to.normal(&format!(
                        "restored checkpoint {} ({} records already ingested)",
                        p, ck.records_ingested
                    ));
                    (online, ck.records_ingested)
                }
                None => (
                    OnlineAssessor::with_config(monitor, ingest_cfg).with_budget(budget),
                    0,
                ),
            };
            if let Some(m) = &metrics {
                online = online.with_metrics(m.clone());
            }
            if let Some(rules) = alert_rules {
                online = online.with_alerts(standard_alert_engine(rules), ALERT_WINDOW_RECORDS);
            }
            let write_checkpoint = |online: &OnlineAssessor, path: &str| {
                let ck = if metrics.is_some() {
                    online.checkpoint_with_metrics(&registry)
                } else {
                    online.checkpoint()
                };
                let json = ck.to_json().unwrap_or_else(fail("serialize checkpoint"));
                std::fs::write(path, json).unwrap_or_else(die(Path::new(path)));
                report_to.normal(&format!(
                    "checkpoint written to {} at record {} ({} subscribers open)",
                    path,
                    online.records_ingested(),
                    online.open_subscribers()
                ));
            };
            let mut assessments = Vec::new();
            let mut checkpointed = false;
            for e in entries.iter().skip(skip as usize) {
                assessments.extend(online.ingest(e));
                if checkpoint_at > 0 && online.records_ingested() == checkpoint_at {
                    if let Some(p) = &checkpoint_path {
                        write_checkpoint(&online, p);
                        checkpointed = true;
                    }
                }
            }
            if !checkpointed {
                // No cut point (or the stream ended first): checkpoint
                // the final pre-drain state, still a valid resume point.
                if let Some(p) = &checkpoint_path {
                    write_checkpoint(&online, p);
                }
            }
            let mut report = online.into_report();
            assessments.extend(std::mem::take(&mut report.assessments));
            report.assessments = assessments;
            report
        }
    };
    assess_span.finish();
    let assessments = &report.assessments;

    let write_span = StageSpan::start(&wall, &write_hist);
    write_jsonl(&out, assessments).unwrap_or_else(die(&out));
    write_span.finish();
    let poor = assessments.iter().filter(|a| a.qoe.is_poor()).count();
    let sketched = assessments
        .iter()
        .filter(|a| a.fidelity == Fidelity::Sketched)
        .count();
    let partial = assessments
        .iter()
        .filter(|a| a.fidelity == Fidelity::Partial)
        .count();
    let shed_tier = assessments
        .iter()
        .filter(|a| a.fidelity == Fidelity::Shed)
        .count();
    report_to.normal(&format!(
        "assessed {} sessions ({} poor-QoE, {} sketched, {} partial, {} shed) -> {}",
        assessments.len(),
        poor,
        sketched,
        partial,
        shed_tier,
        out.display()
    ));
    // Stream-health details stay off stderr unless asked for, so piped
    // output wrappers see only the one summary line.
    let h = report.health;
    report_to.verbose(&format!(
        "stream health: {} entries seen, {} reordered, {} duplicated, \
         {} quarantined, {} subscribers evicted, {} shed, {} refused, \
         {} partial sessions",
        h.entries_seen,
        h.entries_reordered,
        h.entries_duplicated,
        h.entries_quarantined,
        h.sessions_evicted,
        h.sessions_shed,
        h.subscribers_refused,
        h.sessions_partial
    ));
    let shed = &report.shed;
    if shed.total() > 0 {
        let r = shed.reasons();
        report_to.verbose(&format!(
            "load shedding: {} events ({} lru, {} subscriber-budget, \
             {} global-budget, {} refused)",
            shed.total(),
            r.lru_capacity,
            r.subscriber_budget,
            r.global_budget,
            r.admission_refused
        ));
    }
    for a in report.anomalies.kept().iter().take(5) {
        report_to.verbose(&format!(
            "  anomaly: subscriber {} at {}us: {:?}",
            a.subscriber_id,
            a.timestamp.as_micros(),
            a.kind
        ));
    }
    let total = report.anomalies.total();
    if total > 5 {
        report_to.verbose(&format!("  ... {} anomalies total", total));
    }
    // Fired alerts: critical ones are summary-level (an operator
    // running with defaults must see them), warnings are detail.
    for alert in &report.alerts {
        let line = format!("alert: {}", alert.message);
        match alert.severity {
            AlertSeverity::Critical => report_to.normal(&line),
            AlertSeverity::Warning => report_to.verbose(&line),
        }
    }

    // Emit both exposition formats once the pipeline is done: the full
    // Prometheus text (both metric classes) and the Stable-only JSON
    // snapshot (byte-identical across runs and worker counts).
    if let Some(path) = metrics_path {
        let prom = registry.render_prometheus();
        let snap = registry.snapshot_json();
        if path == "-" {
            // Through the Reporter, onto stderr: stdout stays reserved
            // for data, so `vqoe ... --metrics - | tool` never sees
            // scrape text interleaved into its input. Trailing newlines
            // are trimmed because the reporter adds its own.
            report_to.normal(prom.trim_end());
            report_to.normal(snap.trim_end());
        } else {
            std::fs::write(&path, &prom).unwrap_or_else(die(Path::new(&path)));
            let snap_path = format!("{path}.json");
            std::fs::write(&snap_path, &snap).unwrap_or_else(die(Path::new(&snap_path)));
            report_to.normal(&format!(
                "metrics written to {path} (Prometheus text) and {snap_path} (JSON snapshot)"
            ));
        }
    }
}

/// `vqoe metrics-doc` — render the full metric surface of `vqoe assess`
/// as a Markdown reference (stdout, or `--out FILE`). `docs/METRICS.md`
/// is generated from this; a test fails when the two drift apart.
fn metrics_doc(flags: &Flags) {
    let doc = render_metrics_doc();
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &doc).unwrap_or_else(die(Path::new(path)));
            reporter(flags).normal(&format!("metrics reference written to {path}"));
        }
        None => {
            // Tolerate a closed pipe: the doc is best-effort output.
            use std::io::Write;
            let _ = std::io::stdout().lock().write_all(doc.as_bytes());
        }
    }
}

/// The generated Markdown body: every metric `vqoe assess --metrics`
/// registers — the pipeline set plus the CLI stage histograms — as one
/// table per metric class.
fn render_metrics_doc() -> String {
    let registry = Registry::new();
    let _metrics = PipelineMetrics::register(&registry);
    for stage in ["read", "assess", "write"] {
        registry.histogram(
            &format!("vqoe_core_cli_{stage}_wall_micros"),
            "wall-clock CLI stage latency in microseconds",
            MetricClass::Runtime,
            buckets::STAGE_MICROS,
        );
    }
    let descs = registry.describe();
    let mut doc = String::from(
        "# Metrics reference\n\
         \n\
         Generated by `vqoe metrics-doc`; do not edit by hand (the\n\
         `metrics_doc_is_current` test regenerates it and fails on\n\
         drift). Every metric `vqoe assess --metrics` can expose is\n\
         listed here. **Stable**-class metrics appear in both the\n\
         Prometheus text and the deterministic JSON snapshot (and are\n\
         byte-identical across runs and worker counts); **Runtime**\n\
         metrics appear in the Prometheus text only.\n",
    );
    for (class, heading) in [
        (MetricClass::Stable, "Stable metrics"),
        (MetricClass::Runtime, "Runtime metrics"),
    ] {
        doc.push_str(&format!(
            "\n## {heading}\n\n| Name | Kind | Help |\n|---|---|---|\n"
        ));
        for d in descs.iter().filter(|d| d.class == class) {
            doc.push_str(&format!("| `{}` | {} | {} |\n", d.name, d.kind, d.help));
        }
    }
    doc
}

fn fail<E: std::fmt::Display, T>(what: &str) -> impl FnOnce(E) -> T + '_ {
    move |e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    }
}

fn die<E: std::fmt::Display, T>(path: &Path) -> impl FnOnce(E) -> T + '_ {
    move |e| {
        eprintln!("error: {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The help text. Each command's usage lines name exactly the flags
/// in its [`COMMANDS`] entry.
const USAGE: &str = "vqoe — video QoE monitoring from (encrypted) traffic\n\
         \n\
         commands:\n\
           generate   --kind cleartext|adaptive|encrypted --sessions N --seed S\n\
         \x20          --out FILE [--quiet]\n\
           capture    --traces FILE [--encrypted] [--subscriber ID] [--seed S]\n\
         \x20          --out FILE [--quiet]\n\
           extract-gt --weblogs FILE --out FILE [--quiet]\n\
           train      [--cleartext N] [--adaptive N] [--seed S] [--workers N]\n\
         \x20          --out FILE [--quiet]\n\
           assess     --model FILE --weblogs FILE --out FILE\n\
         \x20          [--workers N] [--shards N] [--verbose]\n\
         \x20          [--chaos RATE] [--chaos-seed S] [--chaos-profile mild|harsh|flood]\n\
         \x20          [--max-subscribers N] [--memory-budget BYTES]\n\
         \x20          [--subscriber-budget BYTES] [--admission shed|refuse]\n\
         \x20          [--checkpoint PATH] [--checkpoint-at N] [--restore PATH]\n\
         \x20          [--metrics PATH|-] [--exemplars] [--trace PATH]\n\
         \x20          [--alerts RULES.toml] [--quiet]\n\
           metrics-doc [--out FILE] [--quiet]\n\
           corpus pack   --weblogs FILE --out FILE [--quiet]\n\
           corpus unpack --corpus FILE --out FILE [--quiet]\n\
         \n\
         corpus pack converts a JSONL weblog file into the length-\n\
         prefixed binary replay format (magic VQWL); corpus unpack\n\
         converts it back, bit-identically. assess sniffs --weblogs and\n\
         accepts either format — packed corpora replay without serde on\n\
         the hot path.\n\
         train --workers fans tree/fold/candidate fitting out across\n\
         threads (0 = auto); the trained model is byte-identical at any\n\
         worker count.\n\
         assess runs the streaming assessor by default; --workers routes\n\
         the capture through the sharded parallel engine (0 = auto),\n\
         with bit-identical output. --verbose adds stream-health and\n\
         anomaly details on stderr; --quiet suppresses status lines\n\
         (every command). A flag a command does not list is an error.\n\
         --chaos RATE, in [0, 1], scales a uniform fault mix on the tap\n\
         (0 = clean). --chaos-profile applies a preset fault table (mild:\n\
         5% faults, harsh: 35% faults, flood: 5% faults plus a synthetic\n\
         subscriber flood merged into the tap); it conflicts with --chaos.\n\
         --memory-budget / --subscriber-budget cap buffered bytes\n\
         (record-cost units, 0 = unlimited); over budget, the coldest\n\
         subscribers are force-finalized and assessed at the shed tier.\n\
         --admission refuse turns new subscribers away instead while the\n\
         global budget is full (so it needs --memory-budget > 0).\n\
         --checkpoint writes a deterministic snapshot (at record N with\n\
         --checkpoint-at, else at stream end); --restore resumes from\n\
         one, skipping the records it had already consumed, and takes\n\
         --max-subscribers, the budgets and --admission from it (so it\n\
         rejects those flags). These knobs and --max-subscribers need\n\
         the streaming assessor (no --workers); --shards needs the\n\
         engine.\n\
         --metrics PATH writes pipeline metrics as Prometheus text to\n\
         PATH plus a deterministic JSON snapshot to PATH.json ('-'\n\
         prints both to stderr via the status reporter, keeping stdout\n\
         clean for data). --exemplars links each histogram bucket's max\n\
         sample back to its session (id + tick) in both formats.\n\
         --trace PATH records the engine's span structure (ingest,\n\
         reassemble, fan-out, per-detector deliver, reduce) as Chrome\n\
         trace events at PATH (load in Perfetto / chrome://tracing)\n\
         plus compact JSONL at PATH.jsonl; byte-identical at any worker\n\
         count (needs --workers). --alerts RULES.toml evaluates\n\
         declarative threshold/rate/drift rules over the streaming\n\
         assessor's per-window shed_rate / anomaly_rate / queue_depth\n\
         series (queue_depth counts tracked subscribers; drift is\n\
         CUSUM-backed); fired alerts print on stderr,\n\
         critical at the default level. metrics-doc regenerates the\n\
         docs/METRICS.md metric reference.";

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!("{USAGE}");
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each command's usage lines, joined: a line that opens with a
    /// word starts a command, a line that opens with a flag continues
    /// the one before.
    fn usage_lines() -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        let lines = USAGE
            .lines()
            .skip_while(|l| l.trim() != "commands:")
            .skip(1);
        for line in lines.take_while(|l| !l.trim().is_empty()) {
            let line = line.trim();
            match out.last_mut() {
                Some((_, rest)) if line.starts_with(['-', '[']) => {
                    rest.push(' ');
                    rest.push_str(line);
                }
                _ => {
                    let words: Vec<&str> = line.split_whitespace().collect();
                    let at = words
                        .iter()
                        .position(|w| w.starts_with(['-', '[']))
                        .unwrap_or(words.len());
                    out.push((words[..at].join(" "), words[at..].join(" ")));
                }
            }
        }
        out
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_command_accepts() {
        let usage = usage_lines();
        let names: Vec<&str> = usage.iter().map(|(name, _)| name.as_str()).collect();
        let commands: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(
            names, commands,
            "usage and COMMANDS disagree on the commands"
        );
        for ((name, text), command) in usage.iter().zip(&COMMANDS) {
            let mut listed: Vec<&str> = text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|w| w.strip_prefix("--"))
                .collect();
            let mut accepted = command.flags.to_vec();
            listed.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(listed, accepted, "{name}: usage vs accepted flags");
        }
    }
}
