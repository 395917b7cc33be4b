//! `repro` — regenerate every table and figure of *Measuring Video QoE
//! from Encrypted Traffic* (IMC 2016) from the simulation substrate.
//!
//! ```text
//! repro all                         # every experiment, default scale
//! repro tab3 tab4                   # selected experiments
//! repro all --sessions 20000        # bigger cleartext corpus
//! repro all --out results/          # also write one .txt per experiment
//! ```
//!
//! An unknown flag or experiment id exits 2 with the usage before any
//! work is done.

#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

use std::io::Write;
use vqoe_bench::experiments::{
    run_experiment, subscriber_scaling_with, EXPERIMENTS, SCALING_LADDER, SCALING_SMOKE_LADDER,
};
use vqoe_bench::{ReproContext, ReproScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut sessions: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut smoke = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => {
                i += 1;
                sessions = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--sessions needs a number")),
                );
            }
            "--seed" => {
                i += 1;
                seed = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number")),
                );
            }
            "--out" => {
                i += 1;
                out_dir = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--out needs a directory")),
                );
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                usage("");
            }
            id if id == "all" || EXPERIMENTS.contains(&id) => ids.push(id.to_string()),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            other => usage(&format!("unknown experiment {other}")),
        }
        i += 1;
    }
    // `--smoke` picks the base scale wherever it stands; explicit
    // `--sessions` and `--seed` override it.
    let mut scale = if smoke {
        ReproScale::smoke()
    } else {
        ReproScale::default()
    };
    if let Some(n) = sessions {
        scale.cleartext_sessions = n;
        scale.adaptive_sessions = (n * 3 / 8).max(200);
    }
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    if ids.is_empty() {
        usage("no experiment given");
    }
    if ids.iter().any(|id| id == "all") {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    eprintln!(
        "building reproduction context: {} cleartext + {} adaptive sessions, seed {} ...",
        scale.cleartext_sessions, scale.adaptive_sessions, scale.seed
    );
    let ctx = build_context(scale);

    for id in &ids {
        let report = match id.as_str() {
            // The full 100k-1M ladder takes minutes; --smoke runs the
            // single 10k point.
            "subscriber-scaling" => subscriber_scaling_with(
                &ctx,
                if smoke {
                    &SCALING_SMOKE_LADDER
                } else {
                    &SCALING_LADDER
                },
            ),
            _ => run_experiment(id, &ctx),
        };
        print!("{report}");
        if let Some(dir) = &out_dir {
            std::fs::create_dir_all(dir).expect("create --out directory");
            let path = dir.join(format!("{id}.txt"));
            let mut f = std::fs::File::create(&path).expect("create report file");
            f.write_all(report.as_bytes()).expect("write report");
        }
    }
}

/// Build the context and report its wall-clock build time.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "repro reports how long the context took to build"
)]
fn build_context(scale: ReproScale) -> ReproContext {
    let t0 = std::time::Instant::now();
    let ctx = ReproContext::build(scale);
    eprintln!("context ready in {:.1}s\n", t0.elapsed().as_secs_f64());
    ctx
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--sessions N] [--seed S] [--out DIR] [--smoke] \
         <experiment...|all>\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
