//! Helpers shared by the integration tests that drive a multi-subscriber
//! tap.

use vqoe_core::{EncryptedEvalConfig, EncryptedWorld};
use vqoe_telemetry::WeblogEntry;

/// A tap shared by `subscribers` independent streams, interleaved by
/// timestamp as the proxy would deliver them.
pub fn multi_subscriber_tap(subscribers: u64, sessions: usize, seed: u64) -> Vec<WeblogEntry> {
    let mut entries = Vec::new();
    for s in 0..subscribers {
        let mut cfg = EncryptedEvalConfig::paper_default(seed + s);
        cfg.spec.n_sessions = sessions;
        let mut world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = s;
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    entries
}
