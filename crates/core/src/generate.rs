//! Parallel dataset generation.
//!
//! Sessions are mutually independent (each derives its own RNG streams
//! from the master seed and its index), so trace generation fans out
//! over the training stack's [`run_indexed`] and comes back in index
//! order — the output is bit-identical to a sequential run with the
//! same spec.

use crate::spec::DatasetSpec;
use rand::Rng;
use vqoe_ml::par::run_indexed;
use vqoe_ml::TrainConfig;
use vqoe_player::{simulate_session, SessionConfig, SessionTrace};
use vqoe_simnet::rng::SeedSequence;
use vqoe_simnet::time::{Duration, Instant};

/// Domain-separation label for the config-sampling RNG streams.
const CONFIG_STREAM: u64 = 0xC0F1;

/// Span over which cleartext sessions are scattered (the paper's corpus
/// covers 45 days; any multi-day window makes absolute timestamps
/// uninformative, which is the property that matters). The 29 in 30
/// sessions that start past the first day start their radio channel
/// from its stationary law (see `vqoe_simnet::channel::MIXING_HORIZON`)
/// rather than walking it there.
const TRACE_WINDOW_SECS: u64 = 30 * 24 * 3600;

fn session_config(spec: &DatasetSpec, seeds: &SeedSequence, index: u64) -> SessionConfig {
    let mut rng = seeds.child(CONFIG_STREAM).stream(index);
    SessionConfig {
        session_index: index,
        scenario: spec.scenarios.sample(&mut rng),
        delivery: spec.delivery.sample(&mut rng),
        start_time: Instant::from_secs(rng.gen_range(0..TRACE_WINDOW_SECS)),
        profile: spec.profile,
    }
}

/// Generate `spec.n_sessions` independent traces on `train`'s workers,
/// deterministically ordered by session index: the output is the same
/// at any worker count. Each session's radio channel walks from t = 0
/// to a start within the first day, and draws its state from the
/// chain's stationary law for a later start.
pub fn generate_traces(spec: &DatasetSpec, train: TrainConfig) -> Vec<SessionTrace> {
    let seeds = SeedSequence::new(spec.seed);
    run_indexed(spec.n_sessions, train, |i| {
        simulate_session(&session_config(spec, &seeds, i as u64), &seeds)
    })
}

/// Generate traces **sequentially on one subscriber's timeline**: each
/// session starts after the previous one ends, separated by an
/// exponential think-time gap. This is the §5.2 instrumented-handset
/// shape, where one user launched 722 videos over 25 days and the
/// encrypted stream must later be re-segmented from timing alone.
///
/// `mean_gap_secs` controls the inter-session idle time (must exceed the
/// reassembly idle threshold for the paper's method to work, which it
/// comfortably did in practice).
pub fn generate_sequential_traces(spec: &DatasetSpec, mean_gap_secs: f64) -> Vec<SessionTrace> {
    let seeds = SeedSequence::new(spec.seed);
    let mut gap_rng = seeds.child(0x6A9).stream(0);
    let mut t0 = Instant::from_secs(60);
    let mut traces = Vec::with_capacity(spec.n_sessions);
    for i in 0..spec.n_sessions {
        let mut config = session_config(spec, &seeds, i as u64);
        config.start_time = t0;
        let trace = simulate_session(&config, &seeds);
        let u: f64 = gap_rng.gen_range(1e-9..1.0);
        let gap = (-u.ln() * mean_gap_secs).clamp(45.0, 3600.0);
        t0 = trace.ground_truth.session_end + Duration::from_secs_f64(gap);
        traces.push(trace);
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqoe_simnet::channel::MIXING_HORIZON;

    #[test]
    fn parallel_generation_is_deterministic() {
        let spec = DatasetSpec::cleartext_default(40, 11);
        let a = generate_traces(&spec, TrainConfig::sequential());
        assert_eq!(a.len(), 40);
        // Starts past the mixing horizon draw their channel's state.
        let horizon = Instant::ZERO + MIXING_HORIZON;
        assert!(a.iter().any(|t| t.config.start_time > horizon));
        for train in [TrainConfig::with_workers(2), TrainConfig::auto()] {
            assert_eq!(generate_traces(&spec, train), a);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_traces(&DatasetSpec::cleartext_default(10, 1), TrainConfig::auto());
        let b = generate_traces(&DatasetSpec::cleartext_default(10, 2), TrainConfig::auto());
        assert_ne!(a, b);
    }

    #[test]
    fn session_ids_are_unique() {
        let traces = generate_traces(&DatasetSpec::cleartext_default(60, 12), TrainConfig::auto());
        let mut ids: Vec<&str> = traces.iter().map(|t| t.session_id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 60);
    }

    #[test]
    fn empty_spec_yields_empty_dataset() {
        assert!(
            generate_traces(&DatasetSpec::cleartext_default(0, 1), TrainConfig::auto()).is_empty()
        );
    }

    #[test]
    fn delivery_mix_is_respected() {
        let traces = generate_traces(
            &DatasetSpec::cleartext_default(300, 13),
            TrainConfig::auto(),
        );
        let dash = traces
            .iter()
            .filter(|t| t.config.delivery.is_adaptive())
            .count();
        // 3% of 300 = 9 expected; allow broad slack at this sample size.
        assert!(dash < 40, "dash sessions {dash}");
    }

    #[test]
    fn sequential_traces_do_not_overlap() {
        let spec = DatasetSpec::encrypted_default(14);
        let spec = DatasetSpec {
            n_sessions: 8,
            ..spec
        };
        let traces = generate_sequential_traces(&spec, 120.0);
        assert_eq!(traces.len(), 8);
        for w in traces.windows(2) {
            assert!(
                w[1].config.start_time > w[0].ground_truth.session_end,
                "sessions overlap"
            );
            // Gap must exceed the 45 s floor (enough for idle-gap
            // reassembly with the default 30 s threshold).
            let gap = w[1]
                .config
                .start_time
                .duration_since(w[0].ground_truth.session_end);
            assert!(gap.as_secs_f64() >= 45.0);
        }
    }
}
