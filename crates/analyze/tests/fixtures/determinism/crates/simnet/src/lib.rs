//! Fixture: one seeded `HashMap` walk in a deterministic crate.

use std::collections::HashMap;

pub fn order_dependent_total() -> u64 {
    let mut counts: HashMap<u64, u64> = HashMap::new();
    counts.insert(1, 2);
    let mut total = 0;
    for (_, v) in counts.iter() {
        total += v;
    }
    total
}
