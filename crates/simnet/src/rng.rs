//! Deterministic randomness plumbing.
//!
//! Datasets in the reproduction are generated in parallel (one worker per
//! slice of sessions), so we cannot share one RNG stream: every session
//! gets its own independently seeded generator derived from a master seed
//! and the session's index. The derivation uses SplitMix64, whose output
//! is a bijection of its state — distinct (seed, index, stream) triples
//! can never collide into identical child streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqoe_stats::splitmix64;

/// Derives independent child RNGs from one master seed.
///
/// ```
/// use vqoe_simnet::SeedSequence;
/// let seq = SeedSequence::new(42);
/// let a = seq.stream(0);
/// let b = seq.stream(1);
/// // Same derivation is reproducible...
/// assert_eq!(format!("{:?}", seq.stream(0)), format!("{:?}", a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    master: u64,
}

impl SeedSequence {
    /// Create a sequence rooted at `master`.
    pub fn new(master: u64) -> Self {
        SeedSequence { master }
    }

    /// The master seed.
    pub fn master(&self) -> u64 {
        self.master
    }

    /// A labelled sub-sequence (e.g. one per dataset), itself able to
    /// derive streams. Labels are free-form domain separators.
    pub fn child(&self, label: u64) -> SeedSequence {
        SeedSequence {
            master: splitmix64(self.master ^ splitmix64(label)),
        }
    }

    /// The RNG for stream `index` (e.g. one per session).
    pub fn stream(&self, index: u64) -> StdRng {
        let seed = splitmix64(
            self.master
                .wrapping_add(splitmix64(index ^ 0x9E37_79B9_7F4A_7C15)),
        );
        StdRng::seed_from_u64(seed)
    }
}

/// One standard normal draw (Box–Muller), consuming two uniforms from
/// `rng`: the normal sampler every simulator stream shares.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn same_stream_index_reproduces() {
        let seq = SeedSequence::new(7);
        let mut a = seq.stream(3);
        let mut b = seq.stream(3);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_stream_indices_diverge() {
        let seq = SeedSequence::new(7);
        let mut a = seq.stream(0);
        let mut b = seq.stream(1);
        let av: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn children_with_different_labels_diverge() {
        let seq = SeedSequence::new(7);
        assert_ne!(seq.child(1).master(), seq.child(2).master());
        assert_ne!(seq.child(1).master(), seq.master());
    }

    #[test]
    fn child_derivation_is_stable() {
        // Regression pin: derivation must never change silently, or every
        // recorded experiment output becomes irreproducible.
        let seq = SeedSequence::new(42);
        let c = seq.child(1);
        let mut r = c.stream(0);
        let first: u64 = r.gen();
        let mut r2 = SeedSequence::new(42).child(1).stream(0);
        assert_eq!(first, r2.gen::<u64>());
    }

    proptest! {
        #[test]
        fn prop_distinct_indices_give_distinct_seeds(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            prop_assume!(a != b);
            let seq = SeedSequence::new(99);
            let mut ra = seq.stream(a);
            let mut rb = seq.stream(b);
            // First draws almost surely differ; identical draws would
            // indicate a seed collision in the derivation.
            let xa: u128 = ((ra.gen::<u64>() as u128) << 64) | ra.gen::<u64>() as u128;
            let xb: u128 = ((rb.gen::<u64>() as u128) << 64) | rb.gen::<u64>() as u128;
            prop_assert_ne!(xa, xb);
        }
    }
}
