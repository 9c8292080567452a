//! Descriptive statistics: means, variances, medians, quantiles, and their
//! weighted forms.
//!
//! The numeric-task methods aggregate answers with weighted means (PM with
//! squared loss, CATD, LFC_N) or weighted medians (PM with absolute loss),
//! and the consistency statistic of Section 6.2.1 needs per-task medians.

/// Arithmetic mean; `0.0` on an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance (divides by `n`); `0.0` on slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median; `0.0` on an empty slice. Averages the two central order
/// statistics for even lengths.
pub fn median(xs: &[f64]) -> f64 {
    median_in_place(&mut xs.to_vec())
}

/// [`median`] of a caller-owned buffer, sorting it in place instead of
/// sorting a copy.
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Linear-interpolation quantile (`q ∈ [0, 1]`); `0.0` on an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile requires q in [0,1], got {q}"
    );
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Weighted arithmetic mean `Σ w_i x_i / Σ w_i`.
///
/// Returns the unweighted mean when the total weight is zero (all-spammer
/// degenerate case in the aggregators), and `0.0` on empty input.
///
/// # Panics
/// Panics if lengths differ or any weight is negative.
pub fn weighted_mean(xs: &[f64], ws: &[f64]) -> f64 {
    assert_eq!(xs.len(), ws.len(), "weighted_mean length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (&x, &w) in xs.iter().zip(ws) {
        assert!(w >= 0.0, "negative weight {w}");
        num += w * x;
        den += w;
    }
    if den > 0.0 {
        num / den
    } else {
        mean(xs)
    }
}

/// Weighted median: the smallest `x` such that the cumulative weight of
/// values `≤ x` reaches half the total weight.
///
/// Falls back to the unweighted median when the total weight is zero.
///
/// # Panics
/// Panics if lengths differ or any weight is negative.
pub fn weighted_median(xs: &[f64], ws: &[f64]) -> f64 {
    assert_eq!(xs.len(), ws.len(), "weighted_median length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let total: f64 = ws.iter().inspect(|w| assert!(**w >= 0.0)).sum();
    if total <= 0.0 {
        return median(xs);
    }
    let mut pairs: Vec<(f64, f64)> = xs.iter().copied().zip(ws.iter().copied()).collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN in weighted_median input"));
    let half = total / 2.0;
    let mut acc = 0.0;
    for &(x, w) in &pairs {
        acc += w;
        if acc >= half {
            return x;
        }
    }
    pairs.last().expect("non-empty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((stddev(&xs) - 1.25_f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_basic() {
        let xs = [1.0, 10.0];
        assert!((weighted_mean(&xs, &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((weighted_mean(&xs, &[1.0, 1.0]) - 5.5).abs() < 1e-12);
        // zero total weight falls back to plain mean
        assert!((weighted_mean(&xs, &[0.0, 0.0]) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_median_pulls_toward_heavy_values() {
        let xs = [1.0, 2.0, 100.0];
        let ws = [1.0, 1.0, 10.0];
        assert_eq!(weighted_median(&xs, &ws), 100.0);
        let ws_eq = [1.0, 1.0, 1.0];
        assert_eq!(weighted_median(&xs, &ws_eq), 2.0);
    }

    #[test]
    fn weighted_median_single_dominant() {
        assert_eq!(weighted_median(&[5.0], &[2.0]), 5.0);
        // all-zero weights: unweighted median
        assert_eq!(weighted_median(&[1.0, 3.0, 2.0], &[0.0, 0.0, 0.0]), 2.0);
    }
}
