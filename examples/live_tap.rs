//! Live tap: the §8 "report issues in real time" deployment mode.
//!
//! Weblog entries from multiple subscribers arrive interleaved in
//! timestamp order, one at a time, exactly as a passive tap would
//! deliver them; the [`OnlineAssessor`] carves out sessions on the fly
//! and emits an assessment the instant a session's boundary is proven.
//!
//! ```text
//! cargo run --release -p vqoe-core --example live_tap
//! ```

use vqoe_core::{EncryptedEvalConfig, EncryptedWorld, OnlineAssessor, QoeMonitor, TrainingConfig};

fn main() {
    println!("training the monitor ...");
    let config = TrainingConfig {
        cleartext_sessions: 1_200,
        adaptive_sessions: 500,
        ..TrainingConfig::default()
    };
    let monitor = QoeMonitor::train(&config);

    // Two subscribers streaming videos over the same tap.
    let mut entries = Vec::new();
    for (subscriber, seed) in [(101u64, 21u64), (202, 22)] {
        let mut config = EncryptedEvalConfig::paper_default(seed);
        config.spec.n_sessions = 4;
        let mut world = EncryptedWorld::build(&config).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = subscriber;
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    println!(
        "tap carries {} encrypted transactions from 2 subscribers\n",
        entries.len()
    );

    let mut assessor = OnlineAssessor::new(monitor);
    let mut emitted = 0usize;
    for e in &entries {
        for a in assessor.ingest(e) {
            emitted += 1;
            println!(
                "[t={:>9}] subscriber {:>3}: session closed — {:?}, {:?}, switching={}, MOS {:.1}{}",
                e.timestamp.to_string(),
                e.subscriber_id,
                a.stall,
                a.representation,
                if a.has_quality_switches { "yes" } else { "no" },
                a.qoe.mos,
                if a.qoe.is_poor() { "  << POOR QoE" } else { "" },
            );
        }
    }
    let report = assessor.into_report();
    for a in &report.assessments {
        emitted += 1;
        println!(
            "[tap close ] trailing session — {:?}, {:?}, MOS {:.1}",
            a.stall, a.representation, a.qoe.mos
        );
    }
    let h = report.health;
    println!(
        "\n{emitted} sessions assessed in streaming mode, zero batch windows \
         ({} entries seen, {} quarantined, {} subscribers evicted).",
        h.entries_seen, h.entries_quarantined, h.sessions_evicted
    );
}
