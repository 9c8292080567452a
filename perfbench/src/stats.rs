//! The benchmark's own statistics: nearest-rank percentiles, geometric
//! means and the drift rescaling of a timing by the reference loop.

/// Nearest-rank percentile of `values` for `q` in `[0, 1]`: the smallest
/// sample with at least `q` of the samples at or below it. Sorts in
/// place. Panics on an empty slice (a benchmark bug, never an input).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Nearest-rank median (the lower middle sample of an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5)
}

/// Geometric mean of strictly positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty sample");
    debug_assert!(values.iter().all(|&v| v > 0.0));
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean of the slowest quarter of `values` (at least one):
/// the tail of a fixed set of unlike operations, steadier than any
/// single order statistic of it.
pub fn slowest_quarter(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = (values.len() as f64 / 4.0).ceil().max(1.0) as usize;
    geomean(&sorted[..k])
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A timing taken next to a run of the reference loop: `raw` seconds of
/// work, `reference` seconds the loop took beside it, and the share of
/// CPU time the host withheld from the VM around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw: f64,
    pub reference: f64,
    pub stolen: f64,
}

impl Timed {
    /// The timing expressed at the reference loop's nominal speed on a
    /// host that withholds nothing: the stolen share is taken out, and
    /// when the host runs the loop `k` times slower than nominal the
    /// work is taken to be `k` times slower too.
    pub fn rescaled(&self, nominal: f64) -> f64 {
        self.raw * (1.0 - self.stolen) * nominal / self.reference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        assert_eq!(percentile(&mut v, 0.9), 5.0);
        assert_eq!(percentile(&mut v, 0.2), 1.0);
        assert_eq!(percentile(&mut v, 0.21), 2.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 5.0);
        // 100 samples: p99 is the 99th, not the 100th.
        let mut w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut w, 0.99), 99.0);
        assert_eq!(percentile(&mut w, 0.5), 50.0);
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn geomean_weights_every_value_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.5; 7]) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn slowest_quarter_takes_the_top_quartile() {
        let v: Vec<f64> = (1..=53).map(f64::from).collect();
        // ceil(13.25) = 14 slowest: 40..=53.
        let top: Vec<f64> = (40..=53).map(f64::from).collect();
        assert!((slowest_quarter(&v) - geomean(&top)).abs() < 1e-12);
        assert!((slowest_quarter(&[2.0, 8.0, 1.0]) - 8.0).abs() < 1e-12);
        let seventeen: Vec<f64> = (1..=17).map(f64::from).collect();
        let top: Vec<f64> = (13..=17).map(f64::from).collect();
        assert!((slowest_quarter(&seventeen) - geomean(&top)).abs() < 1e-12);
    }

    #[test]
    fn rescaling_undoes_a_uniform_slowdown() {
        let nominal = 0.002;
        let t = |raw, reference, stolen| Timed {
            raw,
            reference,
            stolen,
        };
        assert!((t(1.0, 0.002, 0.0).rescaled(nominal) - 1.0).abs() < 1e-12);
        assert!((t(1.5, 0.003, 0.0).rescaled(nominal) - 1.0).abs() < 1e-12);
        assert!((t(1.0, 0.004, 0.0).rescaled(nominal) - 0.5).abs() < 1e-12);
        // A third of the time stolen: 1.5 s of wall time is 1 s of work.
        assert!((t(1.5, 0.002, 1.0 / 3.0).rescaled(nominal) - 1.0).abs() < 1e-12);
        // Both at once compose.
        assert!((t(3.0, 0.004, 1.0 / 3.0).rescaled(nominal) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
