//! `qoebench` — the benchmark of the QoE assessment path.
//!
//! One workload per process, one closed loop of whole passes through a
//! public entry point, checked against a reference report:
//!
//! ```text
//! qoebench --workload <replay|chaos|online> [--seed N] [--seconds S]
//!          [--trace 0|1] [--trace-out PATH] [--workers N] [--smoke]
//! qoebench --list
//! ```
//!
//! Every metric goes to stdout as one JSON line
//! `{"workload","metric","value","unit"}` after a JSON header line; the
//! last line is the run summary `{"correct","attempted","failed",
//! "metrics"}`. The log goes to stderr. The exit code is non-zero when
//! a correctness check fails. See `README.md` beside this file.

mod input;
mod layers;
mod stats;
mod table;
mod timed;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;
use vqoe_core::{QoeMonitor, TrainConfig, TrainingConfig};
use vqoe_telemetry::WeblogEntry;

use input::Scale;

/// Training seed: fixed, so every workload seed is judged against the
/// same models.
const TRAINING_SEED: u64 = 2016;

/// Trainings per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The benchmark's workloads (see `table::WORKLOADS` for why each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Archival replay of a packed binary tap on the engine.
    Replay,
    /// A hostile tap on the engine, from decoded records.
    Chaos,
    /// The streaming assessor, one record per call.
    Online,
}

impl Workload {
    /// Every workload, in table order.
    pub const ALL: [Workload; 3] = [Workload::Replay, Workload::Chaos, Workload::Online];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Replay => "replay",
            Workload::Chaos => "chaos",
            Workload::Online => "online",
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    workers: usize,
    smoke: bool,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(Args),
    List,
}

const USAGE: &str = "usage: qoebench --workload <replay|chaos|online> [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out PATH] [--workers N] [--smoke]\n       qoebench --list";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Replay,
        seed: table::DEFAULT_SEED,
        seconds: table::RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        workers: 2,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--smoke" => parsed.smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--workers" => {
                parsed.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?;
                if parsed.workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(parsed))
}

/// Train the models `reps` times, timing each training.
fn setup(scale: &Scale, workers: usize, reps: usize) -> Setup {
    let config = TrainingConfig {
        cleartext_sessions: scale.training.0,
        adaptive_sessions: scale.training.1,
        seed: TRAINING_SEED,
        train: TrainConfig::with_workers(workers),
        ..TrainingConfig::default()
    };
    let mut secs = Vec::new();
    let mut models: Vec<QoeMonitor> = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        models.push(QoeMonitor::train(&config));
        secs.push(start.elapsed().as_secs_f64());
    }
    let same = models.windows(2).all(|w| w[0] == w[1]);
    Setup {
        monitor: models.swap_remove(0),
        secs,
        same,
    }
}

/// Generate the workload's input from its seed.
fn generate(workload: Workload, seed: u64, scale: &Scale, workers: usize) -> Vec<WeblogEntry> {
    match workload {
        Workload::Replay => input::replay(seed, scale, workers),
        Workload::Chaos => input::chaos(seed, scale, workers),
        Workload::Online => input::online(seed, scale, workers),
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Everything one run reports; it is correct when `problems` is empty.
struct Outcome {
    header: Vec<(&'static str, Value)>,
    /// The table's metrics of this run: end-to-end or per-layer.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ungated metrics, printed as metric lines only.
    diagnostics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    trace_json: Option<String>,
}

/// The trained models and what training them cost.
struct Setup {
    monitor: QoeMonitor,
    /// Wall time of each training.
    secs: Vec<f64>,
    /// Whether every training produced the same models.
    same: bool,
}

/// Measure one workload. `expected_input` is the recorded fingerprint
/// the generated input must match, if one is recorded.
fn measure(args: &Args, scale: &Scale, setup: &Setup, expected_input: Option<u64>) -> Outcome {
    let monitor = &setup.monitor;
    let mut problems = Vec::new();
    if !setup.same {
        problems.push("repeated trainings produced different models".to_string());
    }
    let t = Instant::now();
    let entries = generate(args.workload, args.seed, scale, args.workers);
    let fingerprint = input::fingerprint(&entries);
    if let Some(expected) = expected_input.filter(|&fp| fp != fingerprint) {
        problems.push(format!(
            "input fingerprint {fingerprint:016x} differs from the recorded {expected:016x}: \
             the simulator changed the workload"
        ));
    }
    eprintln!(
        "qoebench: {} seed {}: {} records generated in {:.2} s",
        args.workload.name(),
        args.seed,
        entries.len(),
        t.elapsed().as_secs_f64()
    );

    let mut header: Vec<(&'static str, Value)> = vec![
        ("workload", Value::Str(args.workload.name().to_string())),
        ("seed", Value::U64(args.seed)),
        (
            "scale",
            Value::Str(if args.smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("trace", Value::Bool(args.trace)),
        ("workers", Value::U64(args.workers as u64)),
        (
            "machine_parallelism",
            Value::U64(std::thread::available_parallelism().map_or(0, |p| p.get() as u64)),
        ),
        ("records", Value::U64(entries.len() as u64)),
        (
            "input_fingerprint",
            Value::Str(format!("{fingerprint:016x}")),
        ),
        (
            "expected_input_fingerprint",
            expected_input.map_or(Value::Null, |fp| Value::Str(format!("{fp:016x}"))),
        ),
    ];
    let (mut metrics, mut diagnostics) = (Vec::new(), Vec::new());
    let (attempted, failed, trace_json);
    if args.trace {
        let l = layers::run(args.workload.name(), monitor, &entries, args.seconds);
        if l.failed > 0 {
            problems.push(format!(
                "{} of {} traced reports differ from the reference",
                l.failed, l.attempted
            ));
        }
        header.extend(reference_header(&l.reference));
        for m in table::PER_LAYER {
            let value = l
                .metrics
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(f64::NAN, |&(_, v)| v);
            metrics.push((m.name, value, m.unit));
        }
        (attempted, failed, trace_json) = (l.attempted, l.failed, Some(l.trace_json));
    } else {
        let records = entries.len();
        let reference = timed::Reference::of(&timed::engine(monitor, 1).assess(&entries));
        let r = timed::run(
            args.workload,
            monitor,
            entries,
            args.workers,
            args.seconds,
            &reference,
        );
        if !r.reports_match {
            problems.push("a pass's report differs from the single-worker reference".to_string());
        }
        let pass = stats::median(&r.pass_secs);
        let us = |ns: f64| ns / 1e3;
        let values = [
            ("setup_s", stats::median(&setup.secs)),
            ("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)),
            ("entries_per_s", records as f64 / pass),
            ("ingest_p50_us", us(r.calls.percentile(50.0))),
            ("emit_p50_us", us(r.emits.percentile(50.0))),
        ];
        let value = |name: &str| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |&(_, v)| v)
        };
        for m in table::END_TO_END {
            metrics.push((m.name, value(m.name), m.unit));
        }
        for m in table::DIAGNOSTICS {
            diagnostics.push((m.name, value(m.name), m.unit));
        }
        // The tails: the highest percentile with ten samples beyond it.
        let tail = |h: &stats::Histogram| {
            let p = stats::highest_supported_percentile(h.count() as usize).map(|p| p.min(99.0));
            (
                p.map_or(Value::Null, number),
                p.map_or(Value::Null, |p| number(us(h.percentile(p)))),
            )
        };
        let (ingest_tail_pct, ingest_tail_us) = tail(&r.calls);
        let (emit_tail_pct, emit_tail_us) = tail(&r.emits);
        header.extend(reference_header(&reference));
        header.extend([
            (
                "setup_s_each",
                Value::Seq(setup.secs.iter().copied().map(number).collect()),
            ),
            ("passes", Value::U64(r.pass_secs.len() as u64)),
            (
                "pass_s",
                Value::Seq(r.pass_secs.iter().copied().map(number).collect()),
            ),
            (
                "pass_s_quartiles",
                stats::quartiles(&r.pass_secs).map_or(Value::Null, |(q1, q3)| {
                    Value::Seq(vec![number(q1), number(q3)])
                }),
            ),
            ("ingest_calls", Value::U64(r.calls.count())),
            ("ingest_tail_percentile", ingest_tail_pct),
            ("ingest_tail_us", ingest_tail_us),
            ("emit_calls", Value::U64(r.emits.count())),
            ("emit_tail_percentile", emit_tail_pct),
            ("emit_tail_us", emit_tail_us),
        ]);
        (attempted, failed, trace_json) = (r.attempted, r.failed, None);
    }
    for (name, value, _) in metrics.iter().chain(&diagnostics) {
        if !value.is_finite() {
            problems.push(format!("metric {name} was not measured"));
        }
    }
    Outcome {
        header,
        metrics,
        diagnostics,
        attempted: attempted.max(1),
        failed,
        problems,
        trace_json,
    }
}

/// A JSON number, or `null` for a value that was not measured.
fn number(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

fn reference_header(r: &timed::Reference) -> [(&'static str, Value); 3] {
    [
        ("sessions", Value::U64(r.sessions)),
        ("sketched_sessions", Value::U64(r.sketched)),
        (
            "report_fingerprint",
            Value::Str(format!("{:016x}", r.fingerprint)),
        ),
    ]
}

/// The lines a run prints to stdout, the summary last.
fn render(workload: Workload, outcome: &Outcome) -> Vec<String> {
    let line = |v: Value| serde_json::to_string(&v).expect("finite values serialize");
    let mut lines = vec![line(Value::Map(
        outcome
            .header
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    ))];
    for &(name, value, unit) in outcome.metrics.iter().chain(&outcome.diagnostics) {
        lines.push(line(Value::Map(vec![
            (
                "workload".to_string(),
                Value::Str(workload.name().to_string()),
            ),
            ("metric".to_string(), Value::Str(name.to_string())),
            ("value".to_string(), number(value)),
            ("unit".to_string(), Value::Str(unit.to_string())),
        ])));
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), number(value)),
                    ("unit".to_string(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    lines.push(line(Value::Map(vec![
        (
            "correct".to_string(),
            Value::Bool(outcome.problems.is_empty()),
        ),
        ("attempted".to_string(), Value::U64(outcome.attempted)),
        ("failed".to_string(), Value::U64(outcome.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ])));
    lines
}

fn default_trace_path(workload: Workload) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    dir.join("qoebench")
        .join(format!("trace-{}.json", workload.name()))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::List) => {
            print!("{}", table::listing());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(msg) => {
            eprintln!("qoebench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let setup = setup(&scale, args.workers, reps);
    eprintln!("qoebench: set-up {:.2?} s", setup.secs);
    let expected_input = if args.smoke {
        None
    } else {
        table::expected_fingerprint(args.workload, args.seed)
    };
    let mut outcome = measure(&args, &scale, &setup, expected_input);
    if let Some(json) = &outcome.trace_json {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| default_trace_path(args.workload));
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => eprintln!("qoebench: trace written to {}", path.display()),
            Err(e) => outcome
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    outcome
        .header
        .push(("wall_s", number(start.elapsed().as_secs_f64())));
    for p in &outcome.problems {
        eprintln!("qoebench: FAILED: {p}");
    }
    for line in render(args.workload, &outcome) {
        println!("{line}");
    }
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn smoke_setup() -> &'static Setup {
        static SETUP: OnceLock<Setup> = OnceLock::new();
        SETUP.get_or_init(|| setup(&Scale::SMOKE, 2, 1))
    }

    fn smoke_args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 3,
            seconds: 0.0,
            trace,
            trace_out: None,
            workers: 2,
            smoke: true,
        }
    }

    fn parse(line: &str) -> Result<Command, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let Ok(Command::Run(args)) = parse("--workload chaos --seed 7 --seconds 12 --trace 1")
        else {
            panic!("a valid command line was rejected");
        };
        assert_eq!(args.workload, Workload::Chaos);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        assert_eq!((args.workers, args.smoke), (2, false));
        let Ok(Command::Run(args)) = parse("--workload online") else {
            panic!("defaults were rejected");
        };
        assert_eq!(args.seed, table::DEFAULT_SEED);
        assert_eq!(args.seconds, table::RUN_SECONDS as f64);
        assert_eq!(parse("--list"), Ok(Command::List));
        for bad in [
            "",
            "--workload nope",
            "--workload replay --trace 2",
            "--workload replay --seconds -1",
            "--workload replay --workers 0",
            "--workload replay --seed",
            "--workload replay --frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn smoke_runs_print_every_metric_and_pass_their_checks() {
        for workload in Workload::ALL {
            for (trace, table, extra) in [
                (false, table::END_TO_END, table::DIAGNOSTICS),
                (true, table::PER_LAYER, &[][..]),
            ] {
                let out = measure(
                    &smoke_args(workload, trace),
                    &Scale::SMOKE,
                    smoke_setup(),
                    None,
                );
                let what = format!("{} trace={trace}", workload.name());
                assert!(out.problems.is_empty(), "{what}: {:?}", out.problems);
                assert_eq!(out.failed, 0, "{what}");
                let names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
                let expected: Vec<&str> = table.iter().map(|m| m.name).collect();
                assert_eq!(names, expected, "{what}");
                let names: Vec<&str> = out.diagnostics.iter().map(|m| m.0).collect();
                let expected: Vec<&str> = extra.iter().map(|m| m.name).collect();
                assert_eq!(names, expected, "{what}");

                let lines = render(workload, &out);
                let last: Value = serde_json::from_str(lines.last().expect("lines")).expect("JSON");
                let Value::Map(keys) = &last else {
                    panic!("summary is not an object")
                };
                let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(
                    keys,
                    ["correct", "attempted", "failed", "metrics"],
                    "{what}"
                );
                assert!(last.get("attempted").and_then(Value::as_u64) >= Some(1));
                for line in &lines[1..lines.len() - 1] {
                    let m: Value = serde_json::from_str(line).expect("metric line is JSON");
                    assert!(
                        m.get("value").and_then(Value::as_f64).is_some(),
                        "{what}: {line}"
                    );
                }
                if trace {
                    let json = out.trace_json.as_deref().expect("traced runs keep spans");
                    let doc: Value = serde_json::from_str(json).expect("Chrome trace is JSON");
                    let events = doc.get("traceEvents").and_then(Value::as_array);
                    assert!(events.is_some_and(|e| !e.is_empty()), "{what}");
                }
            }
        }
    }

    #[test]
    fn an_input_that_differs_from_the_recorded_fingerprint_fails_the_run() {
        let args = smoke_args(Workload::Chaos, false);
        let out = measure(&args, &Scale::SMOKE, smoke_setup(), Some(0xdead_beef));
        assert!(out.problems.iter().any(|p| p.contains("fingerprint")));
    }

    #[test]
    fn a_perturbed_reference_report_fails_every_pass() {
        let monitor = &smoke_setup().monitor;
        for workload in [Workload::Replay, Workload::Online] {
            let entries = generate(workload, 4, &Scale::SMOKE, 2);
            let mut reference = timed::Reference::of(&timed::engine(monitor, 1).assess(&entries));
            let t = timed::run(workload, monitor, entries.clone(), 2, 0.0, &reference);
            assert!(t.reports_match, "{}", workload.name());
            reference.fingerprint ^= 1;
            let t = timed::run(workload, monitor, entries, 2, 0.0, &reference);
            assert!(!t.reports_match, "{}", workload.name());
            if workload == Workload::Replay {
                assert_eq!(t.failed, t.attempted);
            }
        }
    }
}
