//! Pins of the §4.1/§4.2 selection step on seeded synthetic datasets of
//! the shapes the monitor trains on: ~100 rows × 210 features × 5
//! classes (the representation space) and ~200 rows × 70 features × 3
//! classes (the stall space). Each dataset carries a constant column,
//! two identical columns and an all-NaN column.
//!
//! The pins are the exact subset `cfs_best_first` returns and the
//! FNV-1a fingerprint of `info_gain_ranking`'s `(index, gain bits)`
//! sequence, so any change to the search trajectory, to the order in
//! which a merit or an entropy is summed, or to the discretization
//! shows up here bit for bit, at every worker count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vqoe_ml::{cfs_best_first, info_gain_ranking, Dataset, TrainConfig};

/// A dataset of `rows × features` with `classes` balanced classes.
///
/// Columns 0–3 are the edge cases: a constant, an all-NaN column and
/// two identical informative columns. After them, every third column
/// tracks the class with noise that grows with the column index, every
/// third one is a noisy indicator of one class, and the rest is noise.
fn synthetic(seed: u64, rows: usize, features: usize, classes: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(rows);
    let mut y = Vec::with_capacity(rows);
    for r in 0..rows {
        let c = r % classes;
        let twin = c as f64 + rng.gen_range(-0.8..0.8);
        let mut row = vec![7.0, f64::NAN, twin, twin];
        for f in 4..features {
            let v = match f % 3 {
                0 => c as f64 + rng.gen_range(-1.0..1.0) * (0.5 + f as f64 / 40.0),
                1 => f64::from(u8::from(c == f % classes)) + rng.gen_range(-0.7..0.7),
                _ => rng.gen_range(-10.0..10.0),
            };
            row.push(v);
        }
        x.push(row);
        y.push(c);
    }
    Dataset::new(
        (0..features).map(|f| format!("f{f}")).collect(),
        (0..classes).map(|c| format!("c{c}")).collect(),
        x,
        y,
    )
}

/// 64-bit FNV-1a of the ranking's `(index, gain.to_bits())` pairs.
fn ranking_fingerprint(data: &Dataset, train: TrainConfig) -> u64 {
    info_gain_ranking(data, train)
        .iter()
        .flat_map(|r| {
            let mut bytes = (r.index as u64).to_le_bytes().to_vec();
            bytes.extend_from_slice(&r.gain.to_bits().to_le_bytes());
            bytes
        })
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn assert_pinned(data: &Dataset, subset: &[usize], ranking: u64) {
    for workers in [1usize, 2, 7] {
        let train = TrainConfig::with_workers(workers);
        assert_eq!(cfs_best_first(data, 5, train), subset, "workers {workers}");
        assert_eq!(
            ranking_fingerprint(data, train),
            ranking,
            "workers {workers}"
        );
    }
}

#[test]
fn representation_shaped_selection_is_pinned() {
    let data = synthetic(2016, 100, 210, 5);
    assert_pinned(
        &data,
        &[6, 9, 3, 12, 21, 15, 18, 24, 33],
        0x2625017c2fdf0319,
    );
}

#[test]
fn stall_shaped_selection_is_pinned() {
    let data = synthetic(7, 200, 70, 3);
    assert_pinned(
        &data,
        &[6, 12, 2, 3, 9, 15, 18, 24, 21, 49, 31, 27, 22, 37],
        0x8edcc3979d5c41df,
    );
}

/// A walk that pops subsets whose candidates an earlier expansion has
/// already scored. The search skips those candidates; a walk that
/// pushed them again would expand the same subsets twice, spend its
/// stale budget on expansions that cannot improve, and stop at another,
/// 13-feature subset (`[6, 9, 15, 12, 3, 21, 18, 24, 27, 13, 55, 40,
/// 34]`).
#[test]
fn scored_candidates_are_not_expanded_twice() {
    let data = synthetic(40, 200, 70, 3);
    assert_eq!(
        cfs_best_first(&data, 5, TrainConfig::sequential()),
        [6, 9, 15, 12, 2, 3, 21, 18, 24, 27, 13, 55, 37, 40, 34, 19]
    );
}
