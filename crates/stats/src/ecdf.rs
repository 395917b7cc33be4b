//! Empirical cumulative distribution functions.
//!
//! The paper presents four distribution plots (Figures 2, 4 and 5); the
//! reproduction harness regenerates their series with [`Ecdf`]. The type
//! also backs the *distribution separation* analysis of §4.3: given the
//! σ(CUSUM) scores of sessions with and without representation switches,
//! the threshold that best separates the two ECDFs is what the paper fixes
//! at "500" and then freezes for the encrypted evaluation (§5.6).

/// An empirical CDF over a finite sample.
///
/// Construction sorts the sample once; evaluation is `O(log n)`.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from a sample. Non-finite values are dropped.
    pub fn new(sample: &[f64]) -> Self {
        let mut sorted: Vec<f64> = sample.iter().copied().filter(|v| v.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        Ecdf { sorted }
    }

    /// Number of observations backing the ECDF.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no observations.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` — the fraction of observations `<= x`. Returns `0.0` for an
    /// empty sample.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of elements <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF at probability `p ∈ [0, 1]` (the smallest sample value
    /// `x` with `F(x) >= p`). Returns `0.0` for an empty sample.
    pub fn inverse(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[idx - 1]
    }

    /// The full step-function as `(x, F(x))` pairs, one per distinct
    /// sample value — the series a plotting tool would consume to redraw
    /// the paper's CDF figures.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => out.push((x, f)),
            }
        }
        out
    }

    /// Kolmogorov–Smirnov statistic `sup_x |F_a(x) - F_b(x)|` between two
    /// ECDFs. Used by the dataset-comparison experiment (Figure 5) to
    /// quantify how similar the encrypted and cleartext chunk-size /
    /// inter-arrival distributions are.
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut max_d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            let d = (self.eval(x) - other.eval(x)).abs();
            max_d = max_d.max(d);
        }
        max_d
    }
}

/// Find the threshold on a score that best separates two populations, in
/// the sense of maximizing the *balanced accuracy*
/// `(frac of `below` <= t  +  frac of `above` > t) / 2`.
///
/// This is exactly the §4.3 procedure: `below` are the σ(CUSUM) scores of
/// sessions without representation switches, `above` those with switches,
/// and the returned threshold plays the role of the paper's "500". The
/// returned tuple is `(threshold, frac_below_correct, frac_above_correct)`.
pub fn best_separating_threshold(below: &[f64], above: &[f64]) -> (f64, f64, f64) {
    let below_ecdf = Ecdf::new(below);
    let above_ecdf = Ecdf::new(above);
    let mut candidates: Vec<f64> = below
        .iter()
        .chain(above.iter())
        .copied()
        .filter(|v| v.is_finite())
        .collect();
    candidates.sort_by(f64::total_cmp);
    candidates.dedup();
    let mut best = (0.0, 0.0, 0.0);
    let mut best_score = f64::NEG_INFINITY;
    for &t in &candidates {
        let ok_below = below_ecdf.eval(t);
        let ok_above = 1.0 - above_ecdf.eval(t);
        let score = (ok_below + ok_above) / 2.0;
        if score > best_score {
            best_score = score;
            best = (t, ok_below, ok_above);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn eval_on_empty_is_zero() {
        let e = Ecdf::new(&[]);
        assert_eq!(e.eval(1.0), 0.0);
        assert!(e.is_empty());
    }

    #[test]
    fn eval_step_semantics() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.5), 0.5);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn duplicate_values_collapse_in_steps() {
        let e = Ecdf::new(&[1.0, 1.0, 2.0]);
        let steps = e.steps();
        assert_eq!(steps.len(), 2);
        assert!((steps[0].1 - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(steps[1], (2.0, 1.0));
    }

    #[test]
    fn inverse_is_left_continuous_quantile() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.inverse(0.25), 10.0);
        assert_eq!(e.inverse(0.26), 20.0);
        assert_eq!(e.inverse(1.0), 40.0);
        assert_eq!(e.inverse(0.0), 10.0);
    }

    #[test]
    fn ks_distance_of_identical_is_zero() {
        let a = Ecdf::new(&[1.0, 2.0, 3.0]);
        let b = Ecdf::new(&[1.0, 2.0, 3.0]);
        assert_eq!(a.ks_distance(&b), 0.0);
    }

    #[test]
    fn ks_distance_of_disjoint_is_one() {
        let a = Ecdf::new(&[1.0, 2.0]);
        let b = Ecdf::new(&[10.0, 20.0]);
        assert_eq!(a.ks_distance(&b), 1.0);
    }

    #[test]
    fn separating_threshold_on_disjoint_populations_is_perfect() {
        let below = [1.0, 2.0, 3.0];
        let above = [10.0, 11.0, 12.0];
        let (t, ok_b, ok_a) = best_separating_threshold(&below, &above);
        assert!((3.0..10.0).contains(&t));
        assert_eq!(ok_b, 1.0);
        assert_eq!(ok_a, 1.0);
    }

    #[test]
    fn separating_threshold_on_overlapping_populations() {
        // 20% of 'below' spills over the best threshold.
        let below = [1.0, 2.0, 3.0, 4.0, 50.0];
        let above = [10.0, 20.0, 30.0, 40.0, 60.0];
        let (t, ok_b, ok_a) = best_separating_threshold(&below, &above);
        assert!((4.0..10.0).contains(&t), "t = {t}");
        assert!((ok_b - 0.8).abs() < 1e-12);
        assert_eq!(ok_a, 1.0);
    }

    proptest! {
        #[test]
        fn prop_ecdf_monotone(
            data in proptest::collection::vec(-1e6f64..1e6, 1..200),
            x1 in -1e6f64..1e6,
            x2 in -1e6f64..1e6,
        ) {
            let e = Ecdf::new(&data);
            let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
            prop_assert!(e.eval(lo) <= e.eval(hi));
        }

        #[test]
        fn prop_ecdf_bounded(data in proptest::collection::vec(-1e6f64..1e6, 1..200), x in -2e6f64..2e6) {
            let e = Ecdf::new(&data);
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
        }

        #[test]
        fn prop_ks_symmetric(
            a in proptest::collection::vec(-1e3f64..1e3, 1..50),
            b in proptest::collection::vec(-1e3f64..1e3, 1..50),
        ) {
            let ea = Ecdf::new(&a);
            let eb = Ecdf::new(&b);
            prop_assert!((ea.ks_distance(&eb) - eb.ks_distance(&ea)).abs() < 1e-12);
        }
    }
}
