//! Seed mixing shared by every seeded stream in the workspace.

/// The splitmix64 finalizer (Steele, Lea & Flood's SplitMix): a 64-bit
/// bijection with full avalanche. Derived seeds (per-session streams,
/// per-fold forests) and shard routing pass through it, so that inputs
/// a small integer apart land far apart.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_bijective_on_samples() {
        // spot-check injectivity on a small dense range
        let mut outs: Vec<u64> = (0..10_000u64).map(splitmix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn splitmix64_is_a_bijection_on_a_sample_and_scatters_neighbors() {
        let outs: Vec<u64> = (0..64u64).map(splitmix64).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64, "collision in splitmix64 sample");
        // Consecutive inputs land far apart (no small-offset structure
        // for an affine tree family to rejoin).
        for w in outs.windows(2) {
            assert!(w[0].abs_diff(w[1]) > 1 << 32, "{} vs {}", w[0], w[1]);
        }
    }
}
