//! ABR comparison: exercise the streaming substrate directly, pitting
//! the three adaptation families against each other across radio
//! scenarios — the §2.1 design space the paper's detectors must cover.
//!
//! ```text
//! cargo run --release -p vqoe-core --example abr_comparison
//! ```

use vqoe_core::{generate_traces, DatasetSpec, TrainConfig};
use vqoe_player::AbrKind;
use vqoe_simnet::channel::Scenario;

const SESSIONS_PER_CELL: usize = 250;

fn main() {
    println!(
        "{:<14} {:<12} {:>9} {:>9} {:>10} {:>10}",
        "scenario", "ABR", "stalled%", "mean RR", "switches", "mean res"
    );
    for scenario in [
        Scenario::StaticHome,
        Scenario::Commuting,
        Scenario::CongestedCell,
    ] {
        for abr in [AbrKind::Throughput, AbrKind::BufferBased, AbrKind::Hybrid] {
            let mut spec = DatasetSpec::adaptive_default(SESSIONS_PER_CELL, 31);
            spec.delivery.abr = abr;
            // Pin the whole corpus to one scenario.
            spec.scenarios = match scenario {
                Scenario::StaticHome => vqoe_core::ScenarioMix {
                    static_home: 1.0,
                    static_office: 0.0,
                    commuting: 0.0,
                    congested: 0.0,
                },
                Scenario::Commuting => vqoe_core::ScenarioMix {
                    static_home: 0.0,
                    static_office: 0.0,
                    commuting: 1.0,
                    congested: 0.0,
                },
                _ => vqoe_core::ScenarioMix {
                    static_home: 0.0,
                    static_office: 0.0,
                    commuting: 0.0,
                    congested: 1.0,
                },
            };
            let traces = generate_traces(&spec, TrainConfig::auto());
            let n = traces.len() as f64;
            let stalled = traces
                .iter()
                .filter(|t| t.ground_truth.stall_count() > 0)
                .count() as f64
                / n;
            let mean_rr: f64 = traces
                .iter()
                .map(|t| t.ground_truth.rebuffering_ratio())
                .sum::<f64>()
                / n;
            let mean_switches: f64 = traces
                .iter()
                .map(|t| t.ground_truth.switch_count() as f64)
                .sum::<f64>()
                / n;
            let mean_res: f64 = traces
                .iter()
                .map(|t| t.ground_truth.avg_resolution())
                .sum::<f64>()
                / n;
            println!(
                "{:<14} {:<12} {:>8.1}% {:>9.4} {:>10.2} {:>9.0}p",
                format!("{scenario:?}"),
                format!("{abr:?}"),
                stalled * 100.0,
                mean_rr,
                mean_switches,
                mean_res
            );
        }
    }
    println!(
        "\nReading guide: BufferBased rarely stalls but oscillates (many\n\
         switches); Throughput holds quality steadier but gambles on its\n\
         estimate; Hybrid trades between them — exactly the QoE trade-off\n\
         space (§2.2) the paper's three detectors are built to observe."
    );
}
