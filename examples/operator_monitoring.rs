//! Operator monitoring: run the trained framework over a full
//! instrumented-handset month of encrypted traffic and compare its
//! verdicts against the handset's ground truth — the §5 evaluation as a
//! live dashboard.
//!
//! ```text
//! cargo run --release -p vqoe-core --example operator_monitoring
//! ```

use vqoe_core::{EncryptedEvalConfig, EncryptedWorld, QoeMonitor, SubscriptionSet, TrainingConfig};
use vqoe_features::{rq_label, stall_label, SessionObs, SessionView};

fn main() {
    println!("training the monitor ...");
    let config = TrainingConfig {
        cleartext_sessions: 3_000,
        adaptive_sessions: 1_200,
        ..TrainingConfig::default()
    };
    let monitor = QoeMonitor::train(&config);
    let subs = SubscriptionSet::standard(&monitor);

    println!("building the encrypted evaluation world (722 sessions) ...\n");
    let mut config = EncryptedEvalConfig::paper_default(99);
    config.spec.n_sessions = 120; // trim for example runtime
    let world = EncryptedWorld::build(&config).expect("simulated world builds");
    println!(
        "reassembly recovered {}/{} sessions ({:.1}%)\n",
        world.sessions.len(),
        world.traces.len(),
        world.reassembly_recall() * 100.0
    );

    let mut stall_ok = 0usize;
    let mut rq_ok = 0usize;
    let mut flagged = 0usize;
    println!(
        "{:<6} {:>7} {:>14} {:>14} {:>9} {:>9}",
        "sess", "chunks", "stall (pred)", "stall (true)", "rq ok", "switches"
    );
    for j in &world.joined {
        let session = &world.sessions[j.reassembled_idx];
        let truth = &world.traces[j.trace_idx].ground_truth;
        let obs = SessionObs::from_reassembled(session);
        let a = subs.assess_session(SessionView::new(&obs, session.start, session.end));
        let true_stall = stall_label(truth);
        let true_rq = rq_label(truth);
        if a.stall == true_stall {
            stall_ok += 1;
        }
        if a.representation == true_rq {
            rq_ok += 1;
        }
        if a.has_quality_switches {
            flagged += 1;
        }
        // Print the first 15 rows as a dashboard sample.
        if j.reassembled_idx < 15 {
            println!(
                "{:<6} {:>7} {:>14} {:>14} {:>9} {:>9}",
                j.reassembled_idx,
                a.chunk_count,
                format!("{:?}", a.stall),
                format!("{:?}", true_stall),
                if a.representation == true_rq {
                    "yes"
                } else {
                    "NO"
                },
                if a.has_quality_switches { "yes" } else { "-" },
            );
        }
    }
    let n = world.joined.len() as f64;
    println!("\n--- aggregate over {} sessions ---", world.joined.len());
    println!(
        "stall severity accuracy:          {:.1}%",
        stall_ok as f64 / n * 100.0
    );
    println!(
        "average representation accuracy:  {:.1}%",
        rq_ok as f64 / n * 100.0
    );
    println!(
        "sessions flagged for switching:   {:.1}%",
        flagged as f64 / n * 100.0
    );
    println!("\n(paper: 91.8% stalls, 81.9% representation on encrypted traffic)");
}
