//! Random sampling and probability-vector helpers.
//!
//! `rand` 0.8 ships uniform sampling only (the distribution zoo lives in
//! `rand_distr`, which is not on the approved dependency list), so the
//! Gaussian / Gamma / Beta / Dirichlet samplers the Gibbs and simulation
//! code need are implemented here: Marsaglia's polar method for normals and
//! Marsaglia–Tsang for gammas.

use rand::Rng;

/// Draw a standard normal deviate scaled to `N(mean, std_dev²)` using
/// Marsaglia's polar method.
///
/// # Panics
/// Panics if `std_dev` is negative.
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "sample_gaussian requires std_dev >= 0");
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return mean + std_dev * u * factor;
        }
    }
}

/// Draw from `Gamma(shape, scale)` (mean = `shape * scale`) via
/// Marsaglia–Tsang (2000); the `shape < 1` case uses the boost
/// `Gamma(a) = Gamma(a+1) · U^{1/a}`.
///
/// # Panics
/// Panics if `shape` or `scale` is not strictly positive.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(
        shape > 0.0 && scale > 0.0,
        "sample_gamma requires shape, scale > 0"
    );
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return sample_gamma(rng, shape + 1.0, scale) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_gaussian(rng, 0.0, 1.0);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

/// Draw from `Beta(a, b)` as a ratio of gammas.
pub fn sample_beta<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    let x = sample_gamma(rng, a, 1.0);
    let y = sample_gamma(rng, b, 1.0);
    x / (x + y)
}

/// Draw from a Dirichlet distribution with concentration vector `alpha`.
///
/// # Panics
/// Panics if `alpha` is empty or contains non-positive entries.
pub fn sample_dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: &[f64]) -> Vec<f64> {
    let mut draws = vec![0.0; alpha.len()];
    sample_dirichlet_into(rng, alpha, &mut draws);
    draws
}

/// [`sample_dirichlet`] into a caller-owned buffer: the same draws, in
/// the same order, with no allocation — what the Gibbs samplers call
/// once per confusion row per sweep.
///
/// # Panics
/// Panics if `alpha` is empty, contains non-positive entries, or differs
/// in length from `out`.
pub fn sample_dirichlet_into<R: Rng + ?Sized>(rng: &mut R, alpha: &[f64], out: &mut [f64]) {
    assert!(
        !alpha.is_empty(),
        "sample_dirichlet requires a non-empty alpha"
    );
    assert_eq!(
        alpha.len(),
        out.len(),
        "sample_dirichlet_into needs one output cell per alpha entry"
    );
    for (d, &a) in out.iter_mut().zip(alpha) {
        *d = sample_gamma(rng, a, 1.0);
    }
    let total: f64 = out.iter().sum();
    if total > 0.0 {
        for d in out.iter_mut() {
            *d /= total;
        }
    } else {
        // All gammas underflowed (extremely small alphas): fall back to
        // a uniform vector rather than returning NaNs.
        out.fill(1.0 / alpha.len() as f64);
    }
}

/// Sample an index from an *unnormalized* non-negative weight vector.
///
/// Falls back to uniform sampling when all weights are zero.
///
/// # Panics
/// Panics if `weights` is empty or contains a negative or NaN entry.
pub fn sample_categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(
        !weights.is_empty(),
        "sample_categorical requires non-empty weights"
    );
    let mut total = 0.0;
    for &w in weights {
        assert!(w >= 0.0 && !w.is_nan(), "negative or NaN weight: {w}");
        total += w;
    }
    if total <= 0.0 {
        return rng.gen_range(0..weights.len());
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1 // floating-point slack lands on the last bucket
}

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns negative infinity on an empty slice (the sum of zero terms).
/// The canonical implementation lives in [`crate::kernels`] (this alias
/// keeps the long-standing `dist::log_sum_exp` path working and routes
/// it through the feature-switched `exp`/`ln` backend).
#[inline]
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    crate::kernels::log_sum_exp(xs)
}

/// Convert a log-probability vector into a normalized probability vector
/// in place, stably (see [`crate::kernels::log_normalize`]).
#[inline]
pub fn log_normalize(xs: &mut [f64]) {
    crate::kernels::log_normalize(xs)
}

/// Normalize a non-negative weight vector in place to sum to one; spreads
/// mass uniformly when the total is zero.
#[inline]
pub fn normalize(xs: &mut [f64]) {
    let total: f64 = xs.iter().sum();
    if total > 0.0 && total.is_finite() {
        xs.iter_mut().for_each(|x| *x /= total);
    } else {
        let uniform = 1.0 / xs.len().max(1) as f64;
        xs.iter_mut().for_each(|x| *x = uniform);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn gaussian_moments() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_gaussian(&mut r, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn gamma_moments() {
        let mut r = rng();
        let n = 200_000;
        for &(shape, scale) in &[(0.5, 1.0), (2.0, 3.0), (9.0, 0.5)] {
            let samples: Vec<f64> = (0..n).map(|_| sample_gamma(&mut r, shape, scale)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let expected = shape * scale;
            assert!(
                (mean - expected).abs() < 0.05 * expected.max(1.0),
                "shape {shape} scale {scale}: mean {mean} vs {expected}"
            );
            assert!(samples.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn beta_moments_and_range() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_beta(&mut r, 2.0, 5.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 2.0 / 7.0).abs() < 0.01, "mean {mean}");
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn dirichlet_sums_to_one_and_tracks_alpha() {
        let mut r = rng();
        let alpha = [1.0, 2.0, 7.0];
        let mut acc = [0.0; 3];
        let n = 50_000;
        for _ in 0..n {
            let d = sample_dirichlet(&mut r, &alpha);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            for (a, x) in acc.iter_mut().zip(&d) {
                *a += x;
            }
        }
        let alpha_sum: f64 = alpha.iter().sum();
        for (i, a) in acc.iter().enumerate() {
            let emp = a / n as f64;
            let expected = alpha[i] / alpha_sum;
            assert!(
                (emp - expected).abs() < 0.01,
                "component {i}: {emp} vs {expected}"
            );
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut r = rng();
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[sample_categorical(&mut r, &weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn categorical_uniform_fallback_on_zero_weights() {
        let mut r = rng();
        let weights = [0.0, 0.0];
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[sample_categorical(&mut r, &weights)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn log_sum_exp_stability() {
        // Huge magnitudes must not overflow.
        let xs = [-1000.0, -1000.0];
        assert!((log_sum_exp(&xs) - (-1000.0 + 2.0_f64.ln())).abs() < 1e-10);
        let ys = [700.0, 710.0];
        assert!((log_sum_exp(&ys) - (710.0 + (1.0 + (-10.0_f64).exp()).ln())).abs() < 1e-10);
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn log_normalize_produces_distribution() {
        let mut xs = [-800.0, -801.0, -802.0];
        log_normalize(&mut xs);
        let sum: f64 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(xs[0] > xs[1] && xs[1] > xs[2]);
    }

    #[test]
    fn normalize_handles_zero_total() {
        let mut xs = [0.0, 0.0, 0.0, 0.0];
        normalize(&mut xs);
        assert!(xs.iter().all(|&x| (x - 0.25).abs() < 1e-12));
    }
}
