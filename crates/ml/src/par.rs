//! Deterministic parallel fan-out for the training pipeline.
//!
//! Everything the training stack parallelizes — traces, dataset rows,
//! the discretization of each feature, trees within a forest, folds
//! within a cross-validation — is an *indexed* job list whose jobs are
//! mutually independent once each derives its own RNG stream.
//! [`run_indexed`] fans such a list out over a `crossbeam` scope and
//! returns the results **in job index order**, so every reduction
//! downstream (OOB vote accumulation, confusion-matrix merges) happens
//! in exactly the order the sequential path used. Float addition is
//! not associative; fixing the reduction order is what makes the
//! parallel output *byte-identical* to the sequential one at any
//! worker count — the same discipline `vqoe_core::engine` established
//! for assessment.
//! The engine's shard jobs fan out through [`run_indexed`] too. Work
//! finer than a thread start stays on the caller's thread: the CFS
//! best-first walk scores its candidates sequentially.
//!
//! Seed streams are laid out so they cannot overlap (DESIGN.md §10):
//! trees within one forest use the affine family
//! `seed + t · 0x9E37_79B9_7F4A_7C15`, while cross-validation folds
//! pass the same affine walk through the [`splitmix64`](vqoe_stats::splitmix64) finalizer
//! first, scattering fold seeds across the full 64-bit space so a
//! fold's tree family cannot rejoin another fold's.

use serde::{Deserialize, Serialize};

/// Weyl-sequence increment (2⁶⁴ / φ) used by every affine seed stream
/// in the training stack.
pub const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// The most threads one fan-out starts, whatever count was asked for:
/// an explicit `workers` above it is clamped. Outputs are identical at
/// any worker count, so the clamp changes only how many threads run.
pub const MAX_WORKERS: usize = 64;

/// Worker policy for the deterministic training fan-out.
///
/// The output of every training entry point is byte-identical for every
/// value of `workers`; the knob only trades wall-clock for threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Worker threads for the training fan-out. `0` means auto
    /// (`available_parallelism`, capped at 16 — the same policy as the
    /// assessment engine); `1` runs the plain sequential loop; any count
    /// is clamped to [`MAX_WORKERS`].
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
    /// at 16), never more than [`MAX_WORKERS`] and never more than the
    /// job count.
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
        w.clamp(1, MAX_WORKERS).min(jobs.max(1))
    }
}

/// Run `f(0), f(1), …, f(jobs - 1)` and return the results in index
/// order, fanning out over `config.effective_workers(jobs)` threads.
///
/// Each job must be self-contained (derive its own RNG stream from its
/// index); under that contract the result vector is byte-identical to
/// the sequential loop at any worker count. Jobs are claimed one at a
/// time from a shared atomic cursor — jobs are coarse (a whole tree,
/// fold, trace, dataset row or feature column), so per-job claim
/// overhead is noise; each call starts its threads afresh, so a job
/// list must outweigh a thread start.
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
    fn explicit_worker_counts_are_clamped() {
        let huge = TrainConfig::with_workers(1_000_000);
        assert_eq!(huge.effective_workers(1_000_000), MAX_WORKERS);
        assert_eq!(huge.effective_workers(3), 3);
        let at_cap = TrainConfig::with_workers(MAX_WORKERS);
        assert_eq!(at_cap.effective_workers(usize::MAX), MAX_WORKERS);
    }
}
