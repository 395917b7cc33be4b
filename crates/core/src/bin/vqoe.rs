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
//! # replay a whole capture through the sharded parallel engine
//! vqoe replay --model model.json --weblogs weblogs.vqwl --out assessments.jsonl --workers 4
//!
//! # pack weblogs into the binary replay format (and back)
//! vqoe corpus pack --weblogs weblogs.jsonl --out weblogs.vqwl
//! vqoe corpus unpack --corpus weblogs.vqwl --out weblogs.jsonl
//! ```
//!
//! `assess` runs the streaming assessor, `replay` the sharded engine;
//! their assessments are bit-identical. Both sniff `--weblogs`, accept
//! JSONL or a packed [`BinaryCorpus`], and read it one record at a time
//! in file order, which must be tap order: a record earlier than the
//! one before it is an error ([`OutOfOrder`]), never re-sorted. `replay`
//! runs a packed corpus in place unless chaos or `--trace` needs its
//! records as entries.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fmt;
use std::io::Read;
use std::path::{Path, PathBuf};

use rand::SeedableRng;
use vqoe_core::{
    encode_snapshot, generate_sequential_traces, generate_traces, parse_rules, AdmissionPolicy,
    Alert, AlertSampler, AlertSeverity, BudgetConfig, DatasetSpec, EngineConfig, Fidelity,
    IngestPipeline, IngestReport, OnlineAssessor, OnlineCheckpoint, PipelineMetrics, QoeMonitor,
    TrainConfig, TrainingConfig, ALERT_WINDOW_RECORDS,
};
use vqoe_obs::{
    buckets, Clock, Histogram, MetricClass, Registry, ReportLevel, Reporter, StageSpan, TraceConfig,
};
use vqoe_player::SessionTrace;
use vqoe_simnet::time::Instant;
use vqoe_telemetry::{
    capture_session, extract_sessions, generate_subscriber_flood, jsonl_items, read_jsonl,
    write_jsonl, BinaryCorpus, CaptureConfig, ChaosConfig, ChaosProfile, ChaosTap, IngestConfig,
    WeblogEntry, BINLOG_MAGIC,
};

/// Wall-clock [`Clock`] for CLI stage timing. The `vqoe` binary is an
/// allowlisted non-deterministic surface: its readings feed
/// `Runtime`-class histograms only, never the stable JSON snapshot.
/// The deterministic crates must use `vqoe_obs::SimClock` instead.
#[expect(
    clippy::disallowed_types,
    reason = "the CLI times its stages on the OS clock"
)]
struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    #[expect(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        reason = "the CLI times its stages on the OS clock"
    )]
    fn new() -> WallClock {
        WallClock {
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
    Reporter::new(if flags.has("quiet") {
        ReportLevel::Quiet
    } else if flags.has("verbose") {
        ReportLevel::Verbose
    } else {
        ReportLevel::Normal
    })
}

/// One `vqoe` command: its name as typed (a `corpus` verb included),
/// the flags it accepts and its entry point. [`USAGE`] lists exactly
/// these flags for each command (a unit test checks), and
/// [`Flags::parse`] rejects any other flag.
struct Command {
    name: &'static str,
    /// Flags that take a value.
    flags: &'static [&'static str],
    /// Flags that take none.
    switches: &'static [&'static str],
    /// The entry point. It types every flag value before it reads a
    /// file, and an `Err` is a usage error.
    run: fn(&Flags) -> Result<(), String>,
}

const COMMANDS: [Command; 9] = [
    Command {
        name: "generate",
        flags: &["kind", "sessions", "seed", "out"],
        switches: &["quiet"],
        run: generate,
    },
    Command {
        name: "capture",
        flags: &["traces", "subscriber", "seed", "out"],
        switches: &["encrypted", "quiet"],
        run: capture,
    },
    Command {
        name: "extract-gt",
        flags: &["weblogs", "out"],
        switches: &["quiet"],
        run: extract_gt,
    },
    Command {
        name: "train",
        flags: &["cleartext", "adaptive", "seed", "workers", "out"],
        switches: &["quiet"],
        run: train,
    },
    Command {
        name: "assess",
        flags: &[
            "model",
            "weblogs",
            "out",
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
            "alerts",
        ],
        switches: &["verbose", "exemplars", "quiet"],
        run: assess,
    },
    Command {
        name: "replay",
        flags: &[
            "model",
            "weblogs",
            "out",
            "workers",
            "shards",
            "trace",
            "chaos",
            "chaos-seed",
            "chaos-profile",
            "metrics",
        ],
        switches: &["verbose", "exemplars", "quiet"],
        run: replay,
    },
    Command {
        name: "metrics-doc",
        flags: &["out"],
        switches: &["quiet"],
        run: metrics_doc,
    },
    Command {
        name: "corpus pack",
        flags: &["weblogs", "out"],
        switches: &["quiet"],
        run: corpus_pack,
    },
    Command {
        name: "corpus unpack",
        flags: &["corpus", "out"],
        switches: &["quiet"],
        run: corpus_unpack,
    },
];

/// `(flag, any_of)`: `--flag` needs at least one of `any_of`, in every
/// command that takes it.
const REQUIRES: [(&str, &[&str]); 4] = [
    ("exemplars", &["metrics"]),
    ("chaos-seed", &["chaos", "chaos-profile"]),
    ("checkpoint-at", &["checkpoint"]),
    // Admission acts only while the global budget is full.
    ("admission", &["memory-budget"]),
];

/// `(a, b)`: `--a` and `--b` exclude each other.
const CONFLICTS: [(&str, &str); 5] = [
    ("chaos", "chaos-profile"),
    // A restore takes its ingest config and budget from the checkpoint.
    ("restore", "max-subscribers"),
    ("restore", "memory-budget"),
    ("restore", "subscriber-budget"),
    ("restore", "admission"),
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
    Flags::parse(command, tail)
        .and_then(|flags| (command.run)(&flags))
        .unwrap_or_else(|e| usage(&e));
}

/// `vqoe corpus pack` — convert a JSONL weblog file into the packed
/// binary replay format.
fn corpus_pack(flags: &Flags) -> Result<(), String> {
    let weblogs = flags.path("weblogs")?;
    let out = flags.path("out")?;
    let entries: Vec<WeblogEntry> = read_jsonl(&weblogs).unwrap_or_else(die(&weblogs));
    let corpus = BinaryCorpus::pack(&entries);
    corpus.write_file(&out).unwrap_or_else(die(&out));
    // The input's size is what `write_jsonl` writes for these entries.
    let jsonl_bytes = std::fs::metadata(&weblogs)
        .unwrap_or_else(die(&weblogs))
        .len();
    reporter(flags).normal(&format!(
        "packed {} weblog entries into {} ({} bytes, {:.2}x vs JSONL)",
        corpus.len(),
        out.display(),
        corpus.as_bytes().len(),
        jsonl_bytes as f64 / corpus.as_bytes().len().max(1) as f64,
    ));
    Ok(())
}

/// `vqoe corpus unpack` — convert a packed corpus back to JSONL,
/// bit-identically, decoding one record at a time. A record that does
/// not decode exits 1 naming the corpus, before `--out` is created.
fn corpus_unpack(flags: &Flags) -> Result<(), String> {
    let packed = flags.path("corpus")?;
    let out = flags.path("out")?;
    let corpus = BinaryCorpus::read_file(&packed).unwrap_or_else(die(&packed));
    corpus
        .for_each_record(|_, _| {})
        .unwrap_or_else(die(&packed));
    let entries = corpus
        .records()
        .map(|record| record.unwrap_or_else(die(&packed)).to_entry());
    write_jsonl(&out, entries).unwrap_or_else(die(&out));
    // Every record decoded, so the header's count is the number written.
    reporter(flags).normal(&format!(
        "unpacked {} weblog entries to {}",
        corpus.len(),
        out.display()
    ));
    Ok(())
}

/// A tap's records, one at a time.
type Tap<'a> = Box<dyn Iterator<Item = WeblogEntry> + 'a>;

/// Open `--weblogs`, its format sniffed from its first bytes: a packed
/// corpus comes back in memory, to be read in place; `None` is JSONL,
/// read from disk a line at a time.
fn open_weblogs(path: &Path) -> Option<BinaryCorpus> {
    let mut magic = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(BINLOG_MAGIC.len() as u64).read_to_end(&mut magic))
        .unwrap_or_else(die(path));
    BinaryCorpus::sniff(&magic).then(|| BinaryCorpus::read_file(path).unwrap_or_else(die(path)))
}

/// The records of `--weblogs` (`packed`, or JSONL when `None`) as
/// entries, one at a time, in file order. A record that does not
/// decode, or is [`OutOfOrder`], exits 1 naming it.
fn weblog_records<'a>(packed: Option<&'a BinaryCorpus>, path: &'a Path) -> Tap<'a> {
    let records: Tap<'a> = match packed {
        Some(corpus) => Box::new(
            corpus
                .records()
                .map(move |r| r.unwrap_or_else(die(path)).to_entry()),
        ),
        None => Box::new(
            jsonl_items(path)
                .unwrap_or_else(die(path))
                .map(move |r| r.unwrap_or_else(die(path))),
        ),
    };
    Box::new(in_tap_order(records, |e| e.timestamp, path))
}

/// `records` as they come, checked for tap order: the first one earlier
/// than the one before it exits 1 as [`OutOfOrder`].
fn in_tap_order<'a, R: 'a>(
    records: impl Iterator<Item = R> + 'a,
    timestamp: fn(&R) -> Instant,
    path: &'a Path,
) -> impl Iterator<Item = R> + 'a {
    let mut last = Instant(0);
    records.enumerate().map(move |(index, record)| {
        let previous = std::mem::replace(&mut last, timestamp(&record));
        if last < previous {
            die(path)(OutOfOrder {
                index,
                timestamp: last,
                previous,
            })
        }
        record
    })
}

/// A `--weblogs` record earlier than the one before it. `assess` and
/// `replay` take the tap in file order, which must be timestamp order,
/// as `vqoe capture` writes it: they never re-sort.
struct OutOfOrder {
    /// The record's index in the file, from 0.
    index: usize,
    timestamp: Instant,
    previous: Instant,
}

impl fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record {} at {}us is earlier than record {} at {}us; \
             assess and replay need the tap in timestamp order",
            self.index,
            self.timestamp.as_micros(),
            self.index - 1,
            self.previous.as_micros()
        )
    }
}

/// A command's parsed flags: each at most once, with its value (`None`
/// for a switch).
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// Parse `args` as `command`'s flags. A flag it does not accept, a
    /// missing value, a repeated flag and a broken [`REQUIRES`] or
    /// [`CONFLICTS`] row are usage errors, so no flag is ever silently
    /// ignored.
    fn parse(command: &Command, args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags(Vec::new());
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected a --flag, got '{arg}'"));
            };
            let value = if command.switches.contains(&key) {
                None
            } else if command.flags.contains(&key) {
                match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("--{key} wants a value")),
                }
            } else {
                return Err(format!("unknown flag --{key} for {}", command.name));
            };
            if flags.has(key) {
                return Err(format!("--{key} is given twice"));
            }
            flags.0.push((key.to_string(), value));
        }
        for (a, b) in CONFLICTS {
            if flags.has(a) && flags.has(b) {
                return Err(format!("--{a} conflicts with --{b}"));
            }
        }
        for (flag, any_of) in REQUIRES {
            if flags.has(flag) && !any_of.iter().any(|f| flags.has(f)) {
                return Err(format!("--{flag} requires --{}", any_of.join(" or --")));
            }
        }
        Ok(flags)
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key)
            .map(PathBuf::from)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// `--key`'s value as a number, if given.
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{key} wants a number, got '{v}'"))
            })
            .transpose()
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// A positive number (`what` names it: a count, a byte count), or
    /// `default` when not given.
    fn positive<T>(&self, key: &str, default: T, what: &str) -> Result<T, String>
    where
        T: std::str::FromStr + From<u8> + PartialEq,
    {
        match self.parsed(key)? {
            Some(n) if n == T::from(0) => Err(format!("--{key} wants a positive {what}, got '0'")),
            n => Ok(n.unwrap_or(default)),
        }
    }
}

fn generate(flags: &Flags) -> Result<(), String> {
    let sessions = flags.num("sessions", 1000usize)?;
    let seed = flags.num("seed", 2016u64)?;
    let out = flags.path("out")?;
    let traces: Vec<SessionTrace> = match flags.get("kind").unwrap_or("cleartext") {
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
        other => {
            return Err(format!(
                "--kind must be cleartext|adaptive|encrypted, got '{other}'"
            ))
        }
    };
    write_jsonl(&out, &traces).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "wrote {} traces to {}",
        traces.len(),
        out.display()
    ));
    Ok(())
}

fn capture(flags: &Flags) -> Result<(), String> {
    let traces_path = flags.path("traces")?;
    let out = flags.path("out")?;
    let encrypted = flags.has("encrypted");
    let seed = flags.num("seed", 7u64)?;
    // A sequential (instrumented-handset) corpus belongs to one
    // subscriber; a population corpus gives each session its own.
    let single_subscriber: Option<u64> = flags.parsed("subscriber")?;
    let traces: Vec<SessionTrace> = read_jsonl(&traces_path).unwrap_or_else(die(&traces_path));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut entries: Vec<WeblogEntry> = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let config = CaptureConfig {
            encrypted,
            subscriber_id: single_subscriber.unwrap_or(i as u64),
        };
        entries.extend(capture_session(t, &config, &mut rng).unwrap_or_else(die(&traces_path)));
    }
    // Tap order, which `assess` and `replay` require.
    entries.sort_by_key(|e| e.timestamp);
    write_jsonl(&out, &entries).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "wrote {} weblog entries ({}) to {}",
        entries.len(),
        if encrypted { "encrypted" } else { "cleartext" },
        out.display()
    ));
    Ok(())
}

fn extract_gt(flags: &Flags) -> Result<(), String> {
    let weblogs = flags.path("weblogs")?;
    let out = flags.path("out")?;
    let entries: Vec<WeblogEntry> = read_jsonl(&weblogs).unwrap_or_else(die(&weblogs));
    let sessions = extract_sessions(&entries);
    write_jsonl(&out, &sessions).unwrap_or_else(die(&out));
    reporter(flags).normal(&format!(
        "extracted ground truth for {} sessions to {}",
        sessions.len(),
        out.display()
    ));
    Ok(())
}

fn train(flags: &Flags) -> Result<(), String> {
    let out = flags.path("out")?;
    // `--workers 0` (the default) auto-sizes the training fan-out; any
    // count produces the byte-identical model.
    let config = TrainingConfig {
        cleartext_sessions: flags.positive("cleartext", 4000, "count")?,
        adaptive_sessions: flags.positive("adaptive", 1500, "count")?,
        seed: flags.num("seed", 2016)?,
        train: TrainConfig::with_workers(flags.num("workers", 0)?),
        ..TrainingConfig::default()
    };
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
    Ok(())
}

/// `vqoe assess` — the streaming assessor: the tap one record at a time
/// under the subscriber cap and the memory budgets, with checkpoint,
/// restore and alerts.
fn assess(flags: &Flags) -> Result<(), String> {
    let ingest_cfg = IngestConfig {
        max_open_subscribers: flags.positive("max-subscribers", 65_536, "count")?,
        ..IngestConfig::default()
    };
    let budget = BudgetConfig {
        // A budget left out is 0: unlimited.
        per_subscriber_bytes: flags.positive("subscriber-budget", 0, "byte count")?,
        global_bytes: flags.positive("memory-budget", 0, "byte count")?,
        admission: match flags.get("admission") {
            None => AdmissionPolicy::default(),
            Some(v) => AdmissionPolicy::parse(v).ok_or("--admission must be shed|refuse")?,
        },
    };
    let checkpoint_at = flags.num("checkpoint-at", 0u64)?;
    let report_to = reporter(flags);
    run_tap(flags, |monitor, mut records, _, registry, metrics| {
        // Alert rules parse before the (potentially long) assessment
        // runs, so a typo fails fast.
        let alert_rules = flags.get("alerts").map(|p| {
            let text = std::fs::read_to_string(p).unwrap_or_else(die(Path::new(p)));
            parse_rules(&text).unwrap_or_else(fail("parse alert rules"))
        });
        // Restore resumes the ingest clock where the checkpointed
        // process died: its config and budget are the checkpoint's (the
        // flags that would set them conflict with `--restore`), and the
        // first `records_ingested` records are skipped.
        let mut online = match flags.get("restore") {
            Some(p) => {
                let text = std::fs::read_to_string(p).unwrap_or_else(die(Path::new(p)));
                let ck =
                    OnlineCheckpoint::from_json(&text).unwrap_or_else(fail("parse checkpoint"));
                let cut = usize::try_from(ck.records_ingested).unwrap_or(usize::MAX);
                let skipped = records.by_ref().take(cut).count();
                if (skipped as u64) < ck.records_ingested {
                    fail("restore checkpoint")(format!(
                        "{p} was cut at record {}, but the tap has only {skipped} records",
                        ck.records_ingested,
                    ))
                }
                let online = OnlineAssessor::restore(monitor, &ck)
                    .unwrap_or_else(fail("restore checkpoint"));
                report_to.normal(&format!(
                    "restored checkpoint {} ({} records already ingested)",
                    p, ck.records_ingested
                ));
                if metrics.is_some() {
                    ck.absorb_metrics(registry)
                        .unwrap_or_else(fail("absorb checkpoint metrics"));
                    if ck.metrics_snapshot.is_none() {
                        report_to.normal(&format!(
                            "checkpoint {p} carries no metrics: the stable counters \
                             count from record {}, not from the start of the tap",
                            ck.records_ingested
                        ));
                    }
                }
                online
            }
            None => OnlineAssessor::with_config(monitor, ingest_cfg).with_budget(budget),
        };
        if let Some(m) = metrics {
            online = online.with_metrics(m.clone());
        }
        let mut sampler =
            alert_rules.map(|rules| AlertSampler::new(rules, ALERT_WINDOW_RECORDS, &online));
        let write_checkpoint = |online: &OnlineAssessor, path: &str| {
            let ck = if metrics.is_some() {
                online.checkpoint_with_metrics(registry)
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
        // Checkpoint at record `--checkpoint-at`; with no cut point (or
        // when the stream ends first), checkpoint the final pre-drain
        // state, still a valid resume point.
        let mut pending = flags.get("checkpoint");
        let mut assessments = Vec::new();
        for e in records {
            assessments.extend(online.ingest(&e));
            if let Some(s) = &mut sampler {
                s.observe(&online);
            }
            if online.records_ingested() == checkpoint_at {
                if let Some(p) = pending.take() {
                    write_checkpoint(&online, p);
                }
            }
        }
        if let Some(p) = pending {
            write_checkpoint(&online, p);
        }
        let alerts = sampler.map_or_else(Vec::new, |s| s.finish(&online));
        let mut report = online.into_report();
        assessments.extend(std::mem::take(&mut report.assessments));
        report.assessments = assessments;
        (report, alerts)
    })
}

/// `vqoe replay` — the whole capture through the sharded parallel
/// engine (see `vqoe_core::engine`), bit-identical to `assess` at any
/// worker count.
fn replay(flags: &Flags) -> Result<(), String> {
    let engine = EngineConfig {
        workers: flags.num("workers", 0usize)?,
        shards: flags.positive("shards", EngineConfig::default().shards, "count")?,
    };
    let weblogs = flags.path("weblogs")?;
    let report_to = reporter(flags);
    run_tap(flags, |monitor, records, packed, _, metrics| {
        let mut pipeline = IngestPipeline::new(&monitor).with_engine(engine);
        if let Some(m) = metrics {
            pipeline = pipeline.with_metrics(m.clone());
        }
        let trace_path = flags.get("trace");
        // A packed file replays in place: one zero-copy pass checks it
        // for `OutOfOrder` records, then the engine routes the records
        // by offset and decodes each on the worker that runs its shard.
        if let (Some(corpus), None) = (packed, trace_path) {
            let records = corpus.records().map(|r| r.unwrap_or_else(die(&weblogs)));
            in_tap_order(records, |r| r.timestamp, &weblogs).for_each(drop);
            let report = pipeline.assess_binary(corpus).unwrap_or_else(die(&weblogs));
            return (report, Vec::new());
        }
        let entries: Vec<WeblogEntry> = records.collect();
        // Tracing records the engine's spans, ingest through reduce.
        let Some(p) = trace_path else {
            return (pipeline.assess(&entries), Vec::new());
        };
        let (report, trace) = pipeline.assess_traced(&entries, TraceConfig::default());
        std::fs::write(p, trace.to_chrome_json()).unwrap_or_else(die(Path::new(p)));
        let jsonl_path = format!("{p}.jsonl");
        std::fs::write(&jsonl_path, trace.to_jsonl()).unwrap_or_else(die(Path::new(&jsonl_path)));
        report_to.normal(&format!(
            "trace written to {p} (Chrome trace events, {} spans, {} dropped) \
             and {jsonl_path} (JSONL)",
            trace.events().len(),
            trace.dropped()
        ));
        (report, Vec::new())
    })
}

/// The frame `assess` and `replay` share. It types the tap's flags
/// (so an `Err` comes before any file is read), reads the model, opens
/// the weblogs as a stream of records that merges the flood and injects
/// the chaos as it is read, runs `pipeline` on that stream (handed the
/// packed corpus too when the stream is that file unchanged, the
/// metrics registry and, with `--metrics`, the pipeline metrics on it),
/// then writes the assessments and reports, with the alerts `pipeline`
/// raised.
fn run_tap(
    flags: &Flags,
    pipeline: impl FnOnce(
        QoeMonitor,
        Tap<'_>,
        Option<&BinaryCorpus>,
        &Registry,
        Option<&PipelineMetrics>,
    ) -> (IngestReport, Vec<Alert>),
) -> Result<(), String> {
    let model_path = flags.path("model")?;
    let weblogs = flags.path("weblogs")?;
    let out = flags.path("out")?;
    let rate = flags.num("chaos", 0.0f64)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--chaos wants a rate in [0, 1], got '{rate}'"));
    }
    // `--chaos-profile` is the preset path (mild/harsh/flood, see the
    // ChaosProfile table) and `--chaos RATE` the raw dial; they
    // conflict rather than compose, so a preset means exactly its table.
    let profile = flags
        .get("chaos-profile")
        .map(|name| ChaosProfile::parse(name).ok_or("--chaos-profile must be mild|harsh|flood"))
        .transpose()?;
    let chaos = profile
        .map(|p| p.chaos())
        .or_else(|| (rate > 0.0).then(|| ChaosConfig::uniform(rate)));
    let chaos_seed = flags.num("chaos-seed", 2016u64)?;
    // `--metrics PATH` (or `-` for the status lines) turns on pipeline
    // instrumentation.
    let metrics_path = flags.get("metrics");
    if metrics_path == Some("-") && flags.has("quiet") {
        return Err("--metrics - prints on the status lines --quiet silences; give a PATH".into());
    }
    let report_to = reporter(flags);
    let registry = Registry::new();
    // `--exemplars` links the max sample of every chunk-size and
    // session-duration bucket back to the session (id + tick) that
    // produced it, in both exposition formats.
    let metrics = metrics_path.map(|_| {
        if flags.has("exemplars") {
            PipelineMetrics::register_with_exemplars(&registry)
        } else {
            PipelineMetrics::register(&registry)
        }
    });
    let wall = WallClock::new();
    let [read_hist, assess_hist, write_hist] = stage_histograms(&registry);

    let read_span = StageSpan::start(&wall, &read_hist);
    let json = std::fs::read_to_string(&model_path).unwrap_or_else(die(&model_path));
    let monitor = QoeMonitor::from_json(&json).unwrap_or_else(fail("parse model JSON"));
    let packed = open_weblogs(&weblogs);
    read_span.finish();
    let mut records = weblog_records(packed.as_ref(), &weblogs);
    if let Some(spec) = profile.and_then(|p| p.flood()) {
        let mut file = records.peekable();
        let start = file.peek().map_or(Instant::from_secs(0), |e| e.timestamp);
        let mut flood = generate_subscriber_flood(&spec, start, chaos_seed)
            .into_iter()
            .peekable();
        report_to.normal(&format!(
            "flood profile: injecting {} synthetic entries from {} flood subscribers",
            flood.len(),
            spec.subscribers
        ));
        // `merge_streams`' rule, lazily: the earlier timestamp first, a
        // tie to the file.
        records = Box::new(std::iter::from_fn(move || {
            match (file.peek(), flood.peek()) {
                (Some(e), Some(f)) if f.timestamp < e.timestamp => flood.next(),
                (Some(_), _) => file.next(),
                (None, _) => flood.next(),
            }
        }));
    }
    if let Some(cfg) = chaos {
        let mut tap = ChaosTap::new(records, cfg, chaos_seed);
        let mut reported = false;
        records = Box::new(std::iter::from_fn(move || {
            let e = tap.next();
            if e.is_none() && !std::mem::replace(&mut reported, true) {
                let stats = tap.stats();
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
            }
            e
        }));
    }
    let packed = packed.as_ref().filter(|_| chaos.is_none());

    let assess_span = StageSpan::start(&wall, &assess_hist);
    let (report, alerts) = pipeline(monitor, records, packed, &registry, metrics.as_ref());
    assess_span.finish();
    let assessments = &report.assessments;

    let write_span = StageSpan::start(&wall, &write_hist);
    write_jsonl(&out, assessments).unwrap_or_else(die(&out));
    write_span.finish();
    let tier = |f: Fidelity| assessments.iter().filter(|a| a.fidelity == f).count();
    report_to.normal(&format!(
        "assessed {} sessions ({} poor-QoE, {} sketched, {} partial, {} shed) -> {}",
        assessments.len(),
        assessments.iter().filter(|a| a.qoe.is_poor()).count(),
        tier(Fidelity::Sketched),
        tier(Fidelity::Partial),
        tier(Fidelity::Shed),
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
    for alert in &alerts {
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
        let snap = encode_snapshot(&registry.snapshot());
        if path == "-" {
            // Through the Reporter, onto stderr: stdout stays reserved
            // for data, so `vqoe ... --metrics - | tool` never sees
            // scrape text interleaved into its input. Trailing newlines
            // are trimmed because the reporter adds its own.
            report_to.normal(prom.trim_end());
            report_to.normal(snap.trim_end());
        } else {
            std::fs::write(path, &prom).unwrap_or_else(die(Path::new(path)));
            let snap_path = format!("{path}.json");
            std::fs::write(&snap_path, &snap).unwrap_or_else(die(Path::new(&snap_path)));
            report_to.normal(&format!(
                "metrics written to {path} (Prometheus text) and {snap_path} (JSON snapshot)"
            ));
        }
    }
    Ok(())
}

/// The wall-clock CLI stage histograms: read, assess, write. They are
/// Runtime-class, so the stable JSON snapshot leaves them out.
fn stage_histograms(registry: &Registry) -> [Histogram; 3] {
    ["read", "assess", "write"].map(|stage| {
        registry.histogram(
            &format!("vqoe_core_cli_{stage}_wall_micros"),
            "wall-clock CLI stage latency in microseconds",
            MetricClass::Runtime,
            buckets::STAGE_MICROS,
        )
    })
}

/// `vqoe metrics-doc` — render the full metric surface of `vqoe assess`
/// and `vqoe replay` as a Markdown reference (stdout, or `--out FILE`).
/// `docs/METRICS.md` is generated from this; a test fails when the two
/// drift apart.
fn metrics_doc(flags: &Flags) -> Result<(), String> {
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
    Ok(())
}

/// The generated Markdown body: every metric `vqoe assess --metrics`
/// registers — the pipeline set plus the CLI stage histograms — as one
/// table per metric class.
fn render_metrics_doc() -> String {
    let registry = Registry::new();
    let _metrics = PipelineMetrics::register(&registry);
    stage_histograms(&registry);
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
/// in its [`COMMANDS`] entry, a switch as `[--name]` with no value.
const USAGE: &str = "vqoe — video QoE monitoring from (encrypted) traffic\n\
         \n\
         commands:\n\
         \x20 generate   --kind cleartext|adaptive|encrypted --sessions N --seed S\n\
         \x20            --out FILE [--quiet]\n\
         \x20 capture    --traces FILE [--encrypted] [--subscriber ID] [--seed S]\n\
         \x20            --out FILE [--quiet]\n\
         \x20 extract-gt --weblogs FILE --out FILE [--quiet]\n\
         \x20 train      [--cleartext N] [--adaptive N] [--seed S] [--workers N]\n\
         \x20            --out FILE [--quiet]\n\
         \x20 assess     --model FILE --weblogs FILE --out FILE [--verbose]\n\
         \x20            [--chaos RATE] [--chaos-seed S] [--chaos-profile mild|harsh|flood]\n\
         \x20            [--max-subscribers N] [--memory-budget BYTES]\n\
         \x20            [--subscriber-budget BYTES] [--admission shed|refuse]\n\
         \x20            [--checkpoint PATH] [--checkpoint-at N] [--restore PATH]\n\
         \x20            [--metrics PATH|-] [--exemplars] [--alerts RULES.toml] [--quiet]\n\
         \x20 replay     --model FILE --weblogs FILE --out FILE [--verbose]\n\
         \x20            [--workers N] [--shards N] [--trace PATH]\n\
         \x20            [--chaos RATE] [--chaos-seed S] [--chaos-profile mild|harsh|flood]\n\
         \x20            [--metrics PATH|-] [--exemplars] [--quiet]\n\
         \x20 metrics-doc [--out FILE] [--quiet]\n\
         \x20 corpus pack   --weblogs FILE --out FILE [--quiet]\n\
         \x20 corpus unpack --corpus FILE --out FILE [--quiet]\n\
         \n\
         corpus pack converts a JSONL weblog file into the binary replay\n\
         format (magic VQWL); corpus unpack converts it back,\n\
         bit-identically. assess and replay accept either format and\n\
         read it one record at a time in file order, which must be\n\
         timestamp order, as capture writes it: a record earlier than\n\
         the one before it is an error.\n\
         train --workers fans fitting out across threads (0 = auto, at\n\
         most 64); the model is byte-identical at any worker count.\n\
         assess runs the streaming assessor one record at a time; replay\n\
         runs the sharded parallel engine (--workers 0 = auto, the\n\
         default, at most 64; --shards N > 0). Their assessments are\n\
         bit-identical.\n\
         assess --max-subscribers N caps tracked subscribers (N > 0).\n\
         --verbose adds stream-health and anomaly details on stderr;\n\
         --quiet silences status lines. An unlisted flag, a repeated\n\
         flag and a missing value are errors.\n\
         --chaos RATE, in [0, 1], scales a uniform fault mix on the tap\n\
         (0 = clean). --chaos-profile applies a preset (mild: 5% faults,\n\
         harsh: 35%, flood: 5% plus a synthetic subscriber flood); it\n\
         conflicts with --chaos, and --chaos-seed needs one of the two.\n\
         --memory-budget / --subscriber-budget cap buffered bytes\n\
         (record-cost units, > 0; unlimited when left out); over budget\n\
         the coldest subscribers are assessed at the shed tier.\n\
         --admission refuse turns new subscribers away instead while the\n\
         global budget is full, so it needs --memory-budget.\n\
         --checkpoint writes a deterministic snapshot at stream end, or\n\
         at record N with --checkpoint-at; --restore resumes from one and\n\
         takes --max-subscribers, the budgets and --admission from it,\n\
         so it conflicts with those flags.\n\
         --metrics PATH writes Prometheus text to PATH and a\n\
         deterministic JSON snapshot to PATH.json; '-' prints both on the\n\
         stderr status lines, so not with --quiet. --exemplars (needs\n\
         --metrics) links each histogram bucket's max sample to its\n\
         session (id + tick).\n\
         --trace PATH writes the engine's spans (ingest, reassemble,\n\
         fan-out, per-detector deliver, reduce) as Chrome trace events\n\
         (Perfetto / chrome://tracing) plus JSONL at PATH.jsonl,\n\
         byte-identical at any worker count. --alerts RULES.toml\n\
         evaluates threshold/rate/drift rules over the streaming\n\
         assessor's per-window shed_rate / anomaly_rate / queue_depth\n\
         (tracked subscribers) series; fired alerts print on stderr,\n\
         critical ones at the default level. metrics-doc regenerates\n\
         docs/METRICS.md.";

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
    use std::collections::BTreeSet;

    /// The lines of the usage text's `commands:` block, as printed.
    fn command_block() -> impl Iterator<Item = &'static str> {
        USAGE
            .lines()
            .skip_while(|l| l.trim() != "commands:")
            .skip(1)
            .take_while(|l| !l.trim().is_empty())
    }

    /// Each command's usage lines, joined: a line that opens with a
    /// word starts a command, a line that opens with a flag continues
    /// the one before.
    fn usage_lines() -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = Vec::new();
        for line in command_block() {
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
        // Each command name sits two spaces in, its continuation lines
        // deeper.
        for line in command_block() {
            let body = line.trim_start();
            let indent = line.len() - body.len();
            if body.starts_with(['-', '[']) {
                assert!(indent > 2, "continuation line not indented: {line:?}");
            } else {
                assert_eq!(indent, 2, "command line not indented by two: {line:?}");
            }
        }
        for ((name, text), command) in usage.iter().zip(&COMMANDS) {
            // `(flag, is_switch)`: a switch is written `[--name]`.
            let mut listed: Vec<(&str, bool)> = text
                .split_whitespace()
                .filter_map(|w| {
                    let flag = w.trim_start_matches('[').strip_prefix("--")?;
                    Some((flag.trim_end_matches(']'), w.ends_with(']')))
                })
                .collect();
            let mut accepted: Vec<(&str, bool)> = command
                .flags
                .iter()
                .map(|f| (*f, false))
                .chain(command.switches.iter().map(|s| (*s, true)))
                .collect();
            listed.sort_unstable();
            accepted.sort_unstable();
            assert_eq!(listed, accepted, "{name}: usage vs accepted flags");
        }
    }

    /// Every single flag and every flag pair of every command parses
    /// exactly when no [`CONFLICTS`] row names two of its flags and
    /// every [`REQUIRES`] row of its flags is met; the errors are one
    /// per row, and the rules they state are the ones below.
    #[test]
    fn every_flag_pair_parses_exactly_as_the_rows_say() {
        let stated: [(&str, &[&str]); 2] = [
            (
                "assess",
                &[
                    "--chaos conflicts with --chaos-profile",
                    "--restore conflicts with --max-subscribers",
                    "--restore conflicts with --memory-budget",
                    "--restore conflicts with --subscriber-budget",
                    "--restore conflicts with --admission",
                    "--exemplars requires --metrics",
                    "--chaos-seed requires --chaos or --chaos-profile",
                    "--checkpoint-at requires --checkpoint",
                    "--admission requires --memory-budget",
                ],
            ),
            (
                "replay",
                &[
                    "--chaos conflicts with --chaos-profile",
                    "--exemplars requires --metrics",
                    "--chaos-seed requires --chaos or --chaos-profile",
                ],
            ),
        ];
        for command in &COMMANDS {
            let names: Vec<&str> = command
                .flags
                .iter()
                .chain(command.switches)
                .copied()
                .collect();
            let mut errors = BTreeSet::new();
            for (i, a) in names.iter().enumerate() {
                for b in &names[i..] {
                    let set: Vec<&str> = if a == b { vec![a] } else { vec![a, b] };
                    let args: Vec<String> = set
                        .iter()
                        .flat_map(|f| {
                            let value = command.flags.contains(f).then(|| "1".to_string());
                            std::iter::once(format!("--{f}")).chain(value)
                        })
                        .collect();
                    let valid = !CONFLICTS
                        .iter()
                        .any(|(x, y)| set.contains(x) && set.contains(y))
                        && REQUIRES.iter().all(|(f, any_of)| {
                            !set.contains(f) || any_of.iter().any(|g| set.contains(g))
                        });
                    match Flags::parse(command, &args) {
                        Ok(_) => assert!(valid, "{}: {args:?} parsed", command.name),
                        Err(e) => {
                            assert!(!valid, "{}: {args:?} rejected: {e}", command.name);
                            errors.insert(e);
                        }
                    }
                }
            }
            let rules = stated
                .iter()
                .find(|(name, _)| *name == command.name)
                .map_or(BTreeSet::new(), |(_, rules)| {
                    rules.iter().map(|r| r.to_string()).collect()
                });
            assert_eq!(errors, rules, "{}: rows vs stated rules", command.name);
        }
    }
}
