//! Criterion performance benches for the vqoe stack.
//!
//! These measure the *library's* throughput — how fast the substrate
//! simulates, how fast features extract, how fast the detectors train
//! and score — which is what decides whether an operator could run the
//! framework online ("report issues in real time", §8). The experiment
//! regeneration itself lives in the `repro` binary.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use vqoe_changedet::detector::{session_score, SwitchScoreConfig};
use vqoe_core::{
    generate_traces, DatasetSpec, EngineConfig, OnlineAssessor, QoeMonitor, TrainingConfig,
};
use vqoe_features::{representation_features, stall_features, SessionObs};
use vqoe_ml::{cross_validate, ForestConfig, RandomForest};
use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig};
use vqoe_simnet::channel::Scenario;
use vqoe_simnet::rng::SeedSequence;
use vqoe_simnet::time::Instant;
use vqoe_telemetry::{apply_chaos, reassemble_subscriber, ChaosConfig, ReassemblyConfig};

fn bench_simulation(c: &mut Criterion) {
    let seeds = SeedSequence::new(42);
    let mut group = c.benchmark_group("simulate_session");
    group.bench_function("progressive/static_home", |b| {
        let mut idx = 0u64;
        b.iter(|| {
            idx += 1;
            simulate_session(
                &SessionConfig {
                    session_index: idx,
                    scenario: Scenario::StaticHome,
                    delivery: Delivery::Progressive,
                    start_time: Instant::ZERO,
                    profile: Default::default(),
                },
                &seeds,
            )
        })
    });
    group.bench_function("dash_hybrid/commuting", |b| {
        let mut idx = 0u64;
        b.iter(|| {
            idx += 1;
            simulate_session(
                &SessionConfig {
                    session_index: idx,
                    scenario: Scenario::Commuting,
                    delivery: Delivery::Dash(AbrKind::Hybrid),
                    start_time: Instant::ZERO,
                    profile: Default::default(),
                },
                &seeds,
            )
        })
    });
    group.finish();
}

fn bench_features(c: &mut Criterion) {
    let seeds = SeedSequence::new(7);
    let trace = simulate_session(
        &SessionConfig {
            session_index: 1,
            scenario: Scenario::StaticHome,
            delivery: Delivery::Dash(AbrKind::Hybrid),
            start_time: Instant::ZERO,
            profile: Default::default(),
        },
        &seeds,
    );
    let obs = SessionObs::from_trace(&trace);
    let mut group = c.benchmark_group("feature_extraction");
    group.bench_function("stall_70", |b| b.iter(|| stall_features(&obs)));
    group.bench_function("representation_210", |b| {
        b.iter(|| representation_features(&obs))
    });
    group.bench_function("cusum_switch_score", |b| {
        let points = obs.chunk_points();
        let cfg = SwitchScoreConfig::default();
        b.iter(|| session_score(&points, &cfg))
    });
    group.finish();
}

fn bench_ml(c: &mut Criterion) {
    let traces = generate_traces(&DatasetSpec::cleartext_default(600, 9));
    let full = vqoe_features::build_stall_dataset(&traces);
    let mut rng = rand::SeedableRng::seed_from_u64(1);
    let balanced = full.balanced_downsample(&mut rng);
    let mut group = c.benchmark_group("ml");
    group.sample_size(10);
    group.bench_function("forest_fit_balanced", |b| {
        b.iter(|| RandomForest::fit(&balanced, ForestConfig::default()))
    });
    let forest = RandomForest::fit(&balanced, ForestConfig::default());
    group.bench_function("forest_predict_row", |b| {
        let row = &full.x[0];
        b.iter(|| forest.predict(row))
    });
    group.bench_function("cv_10fold_4feat", |b| {
        let reduced = full.select_features(&[56, 59, 21, 48]);
        b.iter(|| cross_validate(&reduced, 10, ForestConfig::default(), true, 3))
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    // One subscriber's day: 20 sequential encrypted sessions plus noise.
    let spec = DatasetSpec {
        n_sessions: 20,
        ..DatasetSpec::encrypted_default(77)
    };
    let traces = vqoe_core::generate_sequential_traces(&spec, 120.0);
    let mut rng = rand::SeedableRng::seed_from_u64(5);
    let mut entries = Vec::new();
    for t in &traces {
        entries.extend(
            vqoe_telemetry::capture_session(
                t,
                &vqoe_telemetry::CaptureConfig {
                    encrypted: true,
                    subscriber_id: 1,
                },
                &mut rng,
            )
            .expect("simulated traces always capture"),
        );
    }
    entries.sort_by_key(|e| e.timestamp);
    let mut group = c.benchmark_group("telemetry");
    group.bench_function("reassemble_20_sessions", |b| {
        b.iter_batched(
            || entries.clone(),
            |e| reassemble_subscriber(&e, &ReassemblyConfig::default()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_online_ingest(c: &mut Criterion) {
    // One subscriber's day of encrypted traffic, streamed through the
    // hardened online assessor: the entries/sec baseline for later perf
    // work, clean vs. a 10 % composite fault rate.
    let spec = DatasetSpec {
        n_sessions: 20,
        ..DatasetSpec::encrypted_default(78)
    };
    let traces = vqoe_core::generate_sequential_traces(&spec, 120.0);
    let mut rng = rand::SeedableRng::seed_from_u64(6);
    let mut entries = Vec::new();
    for t in &traces {
        entries.extend(
            vqoe_telemetry::capture_session(
                t,
                &vqoe_telemetry::CaptureConfig {
                    encrypted: true,
                    subscriber_id: 1,
                },
                &mut rng,
            )
            .expect("simulated traces always capture"),
        );
    }
    entries.sort_by_key(|e| e.timestamp);
    let (faulted, _) = apply_chaos(&entries, &ChaosConfig::uniform(0.1), 40);
    let monitor = QoeMonitor::train(&TrainingConfig {
        cleartext_sessions: 250,
        adaptive_sessions: 150,
        seed: 17,
        ..TrainingConfig::default()
    });

    let mut group = c.benchmark_group("online_ingest");
    group.sample_size(10);
    for (name, stream) in [("clean_stream", &entries), ("fault_10pct", &faulted)] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || (OnlineAssessor::new(monitor.clone()), stream.clone()),
                |(mut online, stream)| {
                    let mut assessed = 0usize;
                    for e in &stream {
                        assessed += online.ingest(e).len();
                    }
                    assessed + online.finish().len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    // The sharded parallel engine over a multi-subscriber tap, 1 worker
    // vs 4, pure compute.
    let mut rng = rand::SeedableRng::seed_from_u64(8);
    let mut entries = Vec::new();
    for s in 0..6u64 {
        let spec = DatasetSpec {
            n_sessions: 4,
            ..DatasetSpec::encrypted_default(80 + s)
        };
        for t in &vqoe_core::generate_sequential_traces(&spec, 120.0) {
            entries.extend(
                vqoe_telemetry::capture_session(
                    t,
                    &vqoe_telemetry::CaptureConfig {
                        encrypted: true,
                        subscriber_id: s,
                    },
                    &mut rng,
                )
                .expect("simulated traces always capture"),
            );
        }
    }
    entries.sort_by_key(|e| e.timestamp);
    let monitor = QoeMonitor::train(&TrainingConfig {
        cleartext_sessions: 250,
        adaptive_sessions: 150,
        seed: 18,
        ..TrainingConfig::default()
    });

    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let cfg = EngineConfig {
            workers,
            ..EngineConfig::default()
        };
        let name = format!("assess_w{workers}");
        group.bench_function(name.as_str(), |b| {
            b.iter(|| monitor.pipeline().with_engine(cfg).assess(&entries))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_simulation,
    bench_features,
    bench_ml,
    bench_telemetry,
    bench_online_ingest,
    bench_engine
);
criterion_main!(benches);
