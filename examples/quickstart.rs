//! Quickstart: train the QoE framework on simulated cleartext traffic,
//! then assess an encrypted subscriber stream — the whole paper in
//! thirty lines.
//!
//! ```text
//! cargo run --release -p vqoe-core --example quickstart
//! ```

use vqoe_core::{EncryptedEvalConfig, EncryptedWorld, QoeMonitor, TrainingConfig};

fn main() {
    // 1. Train on cleartext corpora (the §3/§4 phase). Small sizes keep
    //    the example fast; scale up for accuracy.
    let config = TrainingConfig {
        cleartext_sessions: 1_500,
        adaptive_sessions: 600,
        ..TrainingConfig::default()
    };
    println!("training the QoE monitor on simulated cleartext traffic ...");
    let monitor = QoeMonitor::train(&config);
    println!(
        "  stall model uses {} features: {:?}",
        monitor.stall_model.selected_names.len(),
        monitor.stall_model.selected_names
    );
    println!(
        "  switch detector threshold: {:.1}\n",
        monitor.switch_model.threshold()
    );

    // 2. An encrypted subscriber stream arrives (the §5 phase). Only
    //    timings, sizes and TCP statistics are visible — no URIs.
    let mut world_config = EncryptedEvalConfig::paper_default(7);
    world_config.spec.n_sessions = 10;
    let world = EncryptedWorld::build(&world_config).expect("simulated world builds");
    println!(
        "captured {} encrypted weblog entries from one subscriber\n",
        world.entries.len()
    );

    // 3. One ingest pass: reassemble sessions once and fan each
    //    session's view out to the subscribed detectors.
    println!(
        "{:<10} {:>7} {:>14} {:>8} {:>10} {:>6}",
        "start", "chunks", "stalling", "quality", "switching", "MOS"
    );
    for a in monitor.pipeline().assess_subscriber(&world.entries) {
        println!(
            "{:<10} {:>7} {:>14} {:>8} {:>10} {:>6.1}",
            a.start.to_string(),
            a.chunk_count,
            format!("{:?}", a.stall),
            format!("{:?}", a.representation),
            if a.has_quality_switches { "yes" } else { "no" },
            a.qoe.mos,
        );
    }
}
