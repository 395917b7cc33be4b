//! Deterministic parallel fan-out for the training pipeline.
//!
//! Everything the training stack parallelizes — trees within a forest,
//! folds within a cross-validation, candidate features within a CFS
//! sweep — is an *indexed* job list whose jobs are mutually independent
//! once each derives its own RNG stream. [`run_indexed`] fans such a
//! list out over a `crossbeam` scope and returns the results **in job
//! index order**, so every reduction downstream (OOB vote accumulation,
//! confusion-matrix merges, merit comparisons) happens in exactly the
//! order the sequential path used. Float addition is not associative;
//! fixing the reduction order is what makes the parallel output
//! *byte-identical* to the sequential one at any worker count — the
//! same discipline `vqoe_core::engine` established for assessment.
//!
//! Seed streams are laid out so they cannot overlap (DESIGN.md §10):
//! trees within one forest use the affine family
//! `seed + t · 0x9E37_79B9_7F4A_7C15`, while cross-validation folds
//! pass the same affine walk through the [`splitmix64`] finalizer
//! first, scattering fold seeds across the full 64-bit space so a
//! fold's tree family cannot rejoin another fold's.

use serde::{Deserialize, Serialize};

/// Weyl-sequence increment (2⁶⁴ / φ) used by every affine seed stream
/// in the training stack.
pub const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Worker policy for the deterministic training fan-out.
///
/// The output of every training entry point is byte-identical for every
/// value of `workers`; the knob only trades wall-clock for threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Worker threads for tree / fold / candidate fan-out. `0` means
    /// auto (`available_parallelism`, capped at 16 — the same policy as
    /// the assessment engine); `1` runs the plain sequential loop.
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { workers: 1 }
    }
}

impl TrainConfig {
    /// Sequential training (the reference path).
    pub fn sequential() -> Self {
        TrainConfig::default()
    }

    /// Auto-sized worker pool (`available_parallelism`, capped at 16).
    pub fn auto() -> Self {
        TrainConfig { workers: 0 }
    }

    /// A fixed worker count.
    pub fn with_workers(workers: usize) -> Self {
        TrainConfig { workers }
    }

    /// The worker count actually used for a list of `jobs`: `workers`
    /// with `0` resolved to the machine's available parallelism (capped
    /// at 16), and never more than the job count.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(16);
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.max(1).min(jobs.max(1))
    }
}

/// The splitmix64 finalizer (Steele, Lea & Flood's SplitMix): a 64-bit
/// bijection with full avalanche. Used to scatter derived seeds (e.g.
/// per-fold streams) across the whole seed space so that affine tree
/// families rooted at different derived seeds cannot overlap by a small
/// integer offset.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SEED_STRIDE);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `f(0), f(1), …, f(jobs - 1)` and return the results in index
/// order, fanning out over `config.effective_workers(jobs)` threads.
///
/// Each job must be self-contained (derive its own RNG stream from its
/// index); under that contract the result vector is byte-identical to
/// the sequential loop at any worker count. Jobs are claimed one at a
/// time from a shared atomic cursor — training jobs are coarse (a whole
/// tree, fold or candidate subset), so per-job claim overhead is noise.
pub fn run_indexed<T, F>(jobs: usize, config: TrainConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = config.effective_workers(jobs);
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let result = crossbeam::thread::scope(|scope| {
        // Workers deposit into private `(index, value)` vectors — no
        // shared lock on the hot path — and hand them back through
        // their join handles; the scatter below restores index order.
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        let mut pairs: Vec<(usize, T)> = Vec::with_capacity(jobs);
        for h in handles {
            match h.join() {
                Ok(local) => pairs.extend(local),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        pairs.sort_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, v)| v).collect()
    });
    match result {
        Ok(v) => v,
        // A worker panic is a bug in the training job itself;
        // re-raising it is the only sane response.
        Err(p) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1usize, 2, 3, 8] {
            let cfg = TrainConfig::with_workers(workers);
            let got = run_indexed(17, cfg, |i| i * i);
            let want: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "workers {workers}");
        }
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let cfg = TrainConfig::with_workers(4);
        assert_eq!(run_indexed(0, cfg, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, cfg, |i| i + 5), vec![5]);
    }

    #[test]
    fn effective_workers_resolves_auto_and_clamps() {
        assert_eq!(TrainConfig::sequential().effective_workers(100), 1);
        assert_eq!(TrainConfig::with_workers(8).effective_workers(3), 3);
        let auto = TrainConfig::auto().effective_workers(1000);
        assert!((1..=16).contains(&auto), "auto resolved to {auto}");
        // Zero jobs still yields a sane (non-zero) worker count.
        assert_eq!(TrainConfig::with_workers(8).effective_workers(0), 1);
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
