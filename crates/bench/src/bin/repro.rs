//! `repro` — regenerate every table and figure of *Measuring Video QoE
//! from Encrypted Traffic* (IMC 2016) from the simulation substrate.
//!
//! ```text
//! repro all                         # every experiment, default scale
//! repro tab3 tab4                   # selected experiments
//! repro all --sessions 20000        # bigger cleartext corpus
//! repro all --out results/          # also write one .txt per experiment
//! repro abr-comparison              # extension experiment
//! ```

use std::io::Write;
use vqoe_bench::experiments::{
    abr_comparison, ingest_bench_with, obs_overhead_with, overload_sweep_with, run_experiment,
    subscriber_scaling_with, trace_overhead_with, IngestBenchConfig, ObsOverheadConfig,
    OverloadSweepConfig, SubscriberScalingConfig, TraceOverheadConfig, EXPERIMENTS,
};
use vqoe_bench::{ReproContext, ReproScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = ReproScale::default();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut bench_json: Option<std::path::PathBuf> = None;
    let mut smoke = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sessions" => {
                i += 1;
                scale.cleartext_sessions = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--sessions needs a number"));
                scale.adaptive_sessions = (scale.cleartext_sessions * 3 / 8).max(200);
            }
            "--seed" => {
                i += 1;
                scale.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--out" => {
                i += 1;
                out_dir = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--out needs a directory")),
                );
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--bench-json needs a file path")),
                );
            }
            "--smoke" => {
                smoke = true;
                scale = ReproScale {
                    seed: scale.seed,
                    ..ReproScale::smoke()
                };
            }
            "--help" | "-h" => {
                usage("");
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage("no experiment given");
    }
    if ids.iter().any(|id| id == "all") {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    // The abr-comparison extension doesn't need the trained context.
    if ids == ["abr-comparison"] {
        println!("{}", abr_comparison(scale.seed, 600));
        return;
    }

    eprintln!(
        "building reproduction context: {} cleartext + {} adaptive sessions, seed {} ...",
        scale.cleartext_sessions, scale.adaptive_sessions, scale.seed
    );
    let t0 = std::time::Instant::now();
    let ctx = ReproContext::build(scale);
    eprintln!("context ready in {:.1}s\n", t0.elapsed().as_secs_f64());

    for id in &ids {
        let bench = |(txt, json): (String, String)| {
            if let Some(path) = &bench_json {
                std::fs::write(path, json).expect("write --bench-json file");
            }
            txt
        };
        let report = match id.as_str() {
            "abr-comparison" => abr_comparison(scale.seed, 600),
            "obs-overhead" => bench(obs_overhead_with(&ctx, ObsOverheadConfig::quick())),
            "overload-sweep" => bench(overload_sweep_with(&ctx, OverloadSweepConfig::quick())),
            "ingest-bench" => bench(ingest_bench_with(&ctx, IngestBenchConfig::quick())),
            "trace-overhead" => bench(trace_overhead_with(&ctx, TraceOverheadConfig::quick())),
            // The full 100k-1M ladder takes minutes; --smoke runs the
            // single 10k point scripts/check.sh gates on.
            "subscriber-scaling" => bench(subscriber_scaling_with(
                &ctx,
                if smoke {
                    SubscriberScalingConfig::smoke()
                } else {
                    SubscriberScalingConfig::quick()
                },
            )),
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

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "usage: repro [--sessions N] [--seed S] [--out DIR] [--smoke] \
         [--bench-json FILE] <experiment...|all>\n\
         experiments: {}  abr-comparison",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
