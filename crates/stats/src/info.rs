//! Information-theoretic measures over nominal (discretized) attributes.
//!
//! These are the primitives behind two of the paper's analysis steps:
//!
//! * **Information-gain ranking** (Tables 2 and 5): "the information gain
//!   represents the contribution of each feature in the construction of
//!   the predictive model". We compute `IG(class; feature)` on the
//!   discretized feature exactly as Weka's `InfoGainAttributeEval` does.
//! * **CFS merit** (§4.1/§4.2 feature selection): Weka's `CfsSubsetEval`
//!   scores a subset by average feature–class correlation over average
//!   feature–feature correlation, where "correlation" is the
//!   [`symmetrical_uncertainty`] of the discretized attributes.
//!
//! All entropies are in bits (log base 2).

/// Shannon entropy (bits) of a label sequence.
pub fn entropy_of_labels(labels: &[usize]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut counts: Vec<u64> = Vec::new();
    for &l in labels {
        if l >= counts.len() {
            counts.resize(l + 1, 0);
        }
        counts[l] += 1;
    }
    entropy_of_counts(&counts)
}

/// Shannon entropy (bits) from raw category counts.
pub fn entropy_of_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / total;
            -p * p.log2()
        })
        .sum()
}

/// Conditional entropy `H(Y | X)` (bits) of labels `y` given nominal
/// attribute `x`.
///
/// # Panics
/// Panics if the sequences differ in length.
pub fn conditional_entropy(y: &[usize], x: &[usize]) -> f64 {
    conditional_entropy_in(y, x, &mut Vec::new())
}

/// The contingency kernel behind [`conditional_entropy`] and
/// [`symmetrical_uncertainty`]: `H(Y | X)` counted in `table`, a
/// caller-owned `(max x + 1) × (max y + 1)` joint-count buffer that is
/// zeroed here and grown only when too small, so a caller that keeps
/// it across calls allocates nothing per call. Rows (one per `x`
/// value) are summed in `x` order, each row's entropy in `y` order.
///
/// # Panics
/// Panics if the sequences differ in length.
fn conditional_entropy_in(y: &[usize], x: &[usize], table: &mut Vec<u64>) -> f64 {
    assert_eq!(y.len(), x.len(), "label/attribute length mismatch");
    if y.is_empty() {
        return 0.0;
    }
    let n = y.len() as f64;
    let width = y.iter().copied().max().unwrap_or(0) + 1;
    let cells = (x.iter().copied().max().unwrap_or(0) + 1) * width;
    table.clear();
    table.resize(cells, 0);
    for (&yi, &xi) in y.iter().zip(x.iter()) {
        table[xi * width + yi] += 1;
    }
    let mut h = 0.0;
    for row in table.chunks_exact(width) {
        let count: u64 = row.iter().sum();
        if count == 0 {
            continue;
        }
        let px = count as f64 / n;
        h += px * entropy_of_counts(row);
    }
    h
}

/// Information gain `IG(Y; X) = H(Y) - H(Y | X)` (bits).
pub fn info_gain(y: &[usize], x: &[usize]) -> f64 {
    (entropy_of_labels(y) - conditional_entropy(y, x)).max(0.0)
}

/// Symmetrical uncertainty
/// `SU(X, Y) = 2 · IG(Y; X) / (H(X) + H(Y))`, in `[0, 1]`.
///
/// This is the "correlation" CfsSubsetEval uses for both feature–class and
/// feature–feature relations; unlike raw information gain it does not favor
/// attributes with many distinct values.
pub fn symmetrical_uncertainty(x: &[usize], y: &[usize]) -> f64 {
    let (hx, hy) = (entropy_of_labels(x), entropy_of_labels(y));
    symmetrical_uncertainty_in(x, hx, y, hy, &mut Vec::new())
}

/// [`symmetrical_uncertainty`] from the marginal entropies `hx = H(x)`
/// and `hy = H(y)` (as [`entropy_of_labels`] gives them), counting the
/// joint values in the caller's `table`, which is cleared and grown as
/// needed. A search that scores many pairs computes each attribute's
/// entropy once and keeps one table, so a pair costs one pass over the
/// rows and no allocation.
pub fn symmetrical_uncertainty_in(
    x: &[usize],
    hx: f64,
    y: &[usize],
    hy: f64,
    table: &mut Vec<u64>,
) -> f64 {
    let denom = hx + hy;
    if denom <= 0.0 {
        return 0.0;
    }
    let gain = (hy - conditional_entropy_in(y, x, table)).max(0.0);
    (2.0 * gain / denom).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entropy_of_uniform_binary_is_one_bit() {
        assert!((entropy_of_labels(&[0, 1, 0, 1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_pure_labels_is_zero() {
        assert_eq!(entropy_of_labels(&[3, 3, 3]), 0.0);
        assert_eq!(entropy_of_labels(&[]), 0.0);
    }

    #[test]
    fn entropy_of_uniform_four_way_is_two_bits() {
        assert!((entropy_of_labels(&[0, 1, 2, 3]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_informative_attribute_has_full_gain() {
        let y = [0, 0, 1, 1];
        let x = [5, 5, 9, 9]; // x determines y
        assert!((info_gain(&y, &x) - 1.0).abs() < 1e-12);
        assert!(conditional_entropy(&y, &x).abs() < 1e-12);
    }

    #[test]
    fn independent_attribute_has_zero_gain() {
        let y = [0, 1, 0, 1];
        let x = [0, 0, 1, 1]; // x ⟂ y here
        assert!(info_gain(&y, &x).abs() < 1e-12);
    }

    #[test]
    fn su_is_symmetric() {
        let a = [0, 0, 1, 1, 2, 2, 0, 1];
        let b = [1, 0, 1, 1, 0, 2, 2, 1];
        assert!((symmetrical_uncertainty(&a, &b) - symmetrical_uncertainty(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn su_of_identical_attributes_is_one() {
        let a = [0, 1, 2, 0, 1, 2];
        assert!((symmetrical_uncertainty(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn su_with_constant_attribute_is_zero() {
        let a = [0, 0, 0, 0];
        let b = [0, 1, 0, 1];
        assert_eq!(symmetrical_uncertainty(&a, &b), 0.0);
    }

    #[test]
    fn textbook_weather_info_gain() {
        // The classic "play tennis" outlook attribute: IG ≈ 0.2467 bits.
        // outlook: 0=sunny(5: 2 yes/3 no), 1=overcast(4: 4 yes), 2=rain(5: 3 yes/2 no)
        let outlook = [0, 0, 1, 2, 2, 2, 1, 0, 0, 2, 0, 1, 1, 2];
        let play = [0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 0];
        let ig = info_gain(&play, &outlook);
        assert!((ig - 0.2467).abs() < 1e-3, "ig = {ig}");
    }

    /// The symmetrical uncertainty as it was computed before the
    /// contingency kernel: both entropies recomputed and a nested joint
    /// table allocated per call. The kernel must match it bit for bit.
    fn reference_su(x: &[usize], y: &[usize]) -> f64 {
        let denom = entropy_of_labels(x) + entropy_of_labels(y);
        if denom <= 0.0 {
            return 0.0;
        }
        let n = y.len() as f64;
        let x_max = x.iter().copied().max().unwrap_or(0);
        let y_max = y.iter().copied().max().unwrap_or(0);
        let mut joint = vec![vec![0u64; y_max + 1]; x_max + 1];
        let mut x_counts = vec![0u64; x_max + 1];
        for (&yi, &xi) in y.iter().zip(x.iter()) {
            joint[xi][yi] += 1;
            x_counts[xi] += 1;
        }
        let mut h_y_given_x = 0.0;
        for (xi, row) in joint.iter().enumerate() {
            if x_counts[xi] == 0 {
                continue;
            }
            h_y_given_x += x_counts[xi] as f64 / n * entropy_of_counts(row);
        }
        let gain = (entropy_of_labels(y) - h_y_given_x).max(0.0);
        (2.0 * gain / denom).clamp(0.0, 1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_kernel_matches_the_reference_bit_for_bit(
            draws in proptest::collection::vec((0usize..1000, 0usize..1000), 0..200),
            rows in 0usize..4,
            bins in (1usize..12, 1usize..12),
            offsets in (0usize..4, 0usize..4),
        ) {
            // The first `rows × 70` draws (none a quarter of the time) as
            // columns of `bins` values each, shifted up by `offsets` so low
            // labels (whole table rows) can be missing: empty columns,
            // single-bin columns and unequal label ranges all occur.
            let draws = &draws[..draws.len().min(rows * 70)];
            let x: Vec<usize> = draws.iter().map(|&(a, _)| offsets.0 + a % bins.0).collect();
            let y: Vec<usize> = draws.iter().map(|&(_, b)| offsets.1 + b % bins.1).collect();
            // The table starts dirty and, for the second pair, holds the
            // counts of the first: neither may leak into the result.
            let mut table = vec![9u64; 3];
            let (hx, hy) = (entropy_of_labels(&x), entropy_of_labels(&y));
            let swapped = symmetrical_uncertainty_in(&y, hy, &x, hx, &mut table);
            prop_assert_eq!(swapped.to_bits(), reference_su(&y, &x).to_bits());
            let want = reference_su(&x, &y).to_bits();
            prop_assert_eq!(symmetrical_uncertainty_in(&x, hx, &y, hy, &mut table).to_bits(), want);
            prop_assert_eq!(symmetrical_uncertainty(&x, &y).to_bits(), want);
        }
    }

    proptest! {
        #[test]
        fn prop_info_gain_nonnegative_and_bounded(
            pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..200)
        ) {
            let y: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
            let x: Vec<usize> = pairs.iter().map(|&(_, b)| b).collect();
            let ig = info_gain(&y, &x);
            prop_assert!(ig >= 0.0);
            prop_assert!(ig <= entropy_of_labels(&y) + 1e-9);
        }

        #[test]
        fn prop_su_in_unit_interval(
            pairs in proptest::collection::vec((0usize..5, 0usize..5), 1..200)
        ) {
            let x: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
            let y: Vec<usize> = pairs.iter().map(|&(_, b)| b).collect();
            let su = symmetrical_uncertainty(&x, &y);
            prop_assert!((0.0..=1.0).contains(&su));
        }

        #[test]
        fn prop_conditioning_never_increases_entropy(
            pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..200)
        ) {
            let y: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
            let x: Vec<usize> = pairs.iter().map(|&(_, b)| b).collect();
            prop_assert!(conditional_entropy(&y, &x) <= entropy_of_labels(&y) + 1e-9);
        }
    }
}
