//! Golden fingerprints of simulator and training output.
//!
//! The bit-identity suites elsewhere compare two runs of the *current*
//! code against each other (worker counts, chaos, kill/restore). These
//! tests pin the output itself, so a speed-up that changes a single
//! random draw or float rounding anywhere in the simulator or the
//! training stack fails here. The fingerprints are 64-bit FNV-1a hashes
//! of the JSON each output serializes to.

use vqoe_core::{generate_traces, DatasetSpec, QoeMonitor, TrainConfig, TrainingConfig};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cleartext traces scattered over the whole 30-day start window, so
/// every radio channel walks days of dwells before its session begins.
#[test]
fn cleartext_traces_match_the_golden_fingerprint() {
    let traces = generate_traces(&DatasetSpec::cleartext_default(64, 2016));
    let json = serde_json::to_string(&traces).expect("traces serialize");
    let got = fnv1a(json.as_bytes());
    assert_eq!(got, 0xd827_b332_8b66_65c7, "trace fingerprint {got:#018x}");
}

/// A trained monitor (both corpora, feature selection, final forests).
#[test]
fn trained_monitor_matches_the_golden_fingerprint() {
    let config = TrainingConfig {
        cleartext_sessions: 120,
        adaptive_sessions: 60,
        seed: 2016,
        train: TrainConfig::with_workers(2),
        ..TrainingConfig::default()
    };
    let json = QoeMonitor::train(&config)
        .to_json()
        .expect("monitor serializes");
    let got = fnv1a(json.as_bytes());
    assert_eq!(
        got, 0xf991_08de_d0f5_518f,
        "monitor fingerprint {got:#018x}"
    );
}
