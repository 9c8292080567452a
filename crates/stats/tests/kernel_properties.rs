//! Property tests for the batched transcendental kernels: batched
//! results must match the scalar-std reference elementwise over
//! adversarial inputs — subnormals, ±∞, NaN, ±700-magnitude arguments
//! (the exp overflow/underflow region), empty slices, and 1..=7-length
//! tails that never reach the 4-lane body.
//!
//! The comparison contract depends on the backend the crate was built
//! with:
//!
//! - **default**: bit-identical (0 ULP) — the kernels batch the exact
//!   std calls, so any difference is a kernel bug;
//! - **`fast-math`**: ≤ [`ULP_BOUND`] = 4 ULP against std for finite
//!   results, with exact agreement on the special-value classes
//!   (NaN/±∞/zero). This is the pinned error contract documented on
//!   `crowd_stats::kernels`.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crowd_stats::kernels::{self, ulp_diff};
use crowd_stats::DMat;

/// Pinned per-element error bound against the scalar std reference.
const ULP_BOUND: u64 = if cfg!(feature = "fast-math") { 4 } else { 0 };

fn assert_close(got: f64, want: f64, ctx: &str) -> Result<(), TestCaseError> {
    let d = ulp_diff(got, want);
    // Written as a strict-inequality-of-successor so the default build's
    // `ULP_BOUND = 0` does not trip `absurd_extreme_comparisons`.
    prop_assert!(
        d < ULP_BOUND + 1,
        "{ctx}: batched {got:e} vs scalar-std {want:e} differ by {d} ULP (bound {ULP_BOUND})"
    );
    Ok(())
}

/// Adversarial f64s: ordinary log-domain magnitudes, the ±700 region
/// where `exp` saturates, subnormals, exact zeros, infinities, and NaN.
fn adversarial() -> impl Strategy<Value = f64> {
    (0u8..10, -1.0f64..1.0).prop_map(|(class, u)| match class {
        0 => u * 30.0,   // log-posterior range
        1 => u * 750.0,  // exp overflow/underflow region
        2 => u * 1e-3,   // near zero
        3 => u * 5e-308, // subnormal / smallest-normal
        4 => u * 1e300,  // huge magnitudes
        5 => 0.0,
        6 => f64::INFINITY,
        7 => f64::NEG_INFINITY,
        8 => f64::NAN,
        _ => u, // [-1, 1]
    })
}

/// Slices from empty through sub-lane tails (1..=7) up to several
/// 4-lane chunks plus remainder.
fn adversarial_slice() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(adversarial(), 0..23)
}

fn scalar_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Scalar-std reference for `log_sum_exp` — the exact pre-kernel
/// implementation (sequential sum, max-trick).
fn reference_log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f64 = xs
        .iter()
        .map(|&x| if x == max { 1.0 } else { (x - max).exp() })
        .sum();
    max + sum.ln()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn exp_slice_matches_scalar_std(xs in adversarial_slice()) {
        let mut got = xs.clone();
        kernels::exp_slice(&mut got);
        for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
            assert_close(g, x.exp(), &format!("exp_slice[{i}] of {x:e}"))?;
        }
    }

    #[test]
    fn ln_slice_matches_scalar_std(xs in adversarial_slice()) {
        let mut got = xs.clone();
        kernels::ln_slice(&mut got);
        for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
            assert_close(g, x.ln(), &format!("ln_slice[{i}] of {x:e}"))?;
        }
    }

    #[test]
    fn safe_ln_slice_matches_clamp_idiom(xs in adversarial_slice()) {
        let mut got = xs.clone();
        kernels::safe_ln_slice(&mut got);
        for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
            assert_close(g, x.max(1e-12).ln(), &format!("safe_ln_slice[{i}] of {x:e}"))?;
        }
    }

    #[test]
    fn sigmoid_slice_matches_scalar_reference(xs in adversarial_slice()) {
        let mut got = xs.clone();
        kernels::sigmoid_slice(&mut got);
        for (i, (&x, &g)) in xs.iter().zip(&got).enumerate() {
            assert_close(g, scalar_sigmoid(x), &format!("sigmoid_slice[{i}] of {x:e}"))?;
        }
    }

    #[test]
    fn log_sum_exp_matches_reference(xs in adversarial_slice()) {
        let got = crowd_stats::dist::log_sum_exp(&xs);
        let want = reference_log_sum_exp(&xs);
        assert_close(got, want, &format!("log_sum_exp of {xs:?}"))?;
    }

    /// Finite log-probability rows (the shape every E-step feeds the
    /// kernel): each normalized row is a distribution, and in default
    /// mode each element is bit-identical to the scalar reference.
    #[test]
    fn log_normalize_rows_produces_distributions(
        rows in proptest::collection::vec(
            proptest::collection::vec(-800.0f64..10.0, 3), 1..9)
    ) {
        let mut m = DMat::from_rows(&rows);
        kernels::log_normalize_rows(&mut m);
        for (i, row) in rows.iter().enumerate() {
            // Scalar reference: lse then per-element exp.
            let lse = reference_log_sum_exp(row);
            let sum: f64 = m.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
            for (j, (&x, &g)) in row.iter().zip(m.row(i)).enumerate() {
                assert_close(g, (x - lse).exp(), &format!("row {i} col {j}"))?;
            }
        }
    }

    #[test]
    fn weighted_log_dot_matches_open_coded_sum(
        pairs in proptest::collection::vec((0.0f64..1.0, adversarial()), 0..23)
    ) {
        let (w, x): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let got = kernels::weighted_log_dot(&w, &x);
        let want: f64 = w
            .iter()
            .zip(&x)
            .map(|(&w, &x)| w * x.max(1e-12).ln())
            .sum();
        if ULP_BOUND == 0 {
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
        } else {
            // Accumulated fast-math error over up to 22 terms; equal
            // special values (±inf from infinite inputs, NaN) pass.
            prop_assert!(
                got == want
                    || (got.is_nan() && want.is_nan())
                    || (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }
}

/// One `l`-wide row of a kind the batched row kernels must keep
/// bit-identical: ordinary, all `-inf`, holding NaN, holding `+inf`,
/// offset by −800, or with its maximum tied between two lanes.
fn special_row(kind: u8, vals: &[f64], l: usize) -> Vec<f64> {
    let mut row = vals[..l].to_vec();
    match kind {
        1 => row.fill(f64::NEG_INFINITY),
        2 => row[l / 2] = f64::NAN,
        3 => row[l - 1] = f64::INFINITY,
        4 => row.iter_mut().for_each(|x| *x -= 800.0),
        5 => {
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            row[0] = max;
            row[l - 1] = max;
        }
        _ => {}
    }
    row
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Per-row reference for the multi-row E-step kernels: each filled row
/// gets the log-domain values `fill` writes and is normalised with the
/// per-row [`kernels::log_normalize`]; skipped rows keep their values.
fn per_row_e_step(
    l: usize,
    rows: usize,
    mut fill: impl FnMut(usize, &mut [f64]) -> bool,
) -> (Vec<f64>, u64) {
    let mut out = vec![-5.5; rows * l];
    let mut computed = 0;
    for (r, row) in out.chunks_exact_mut(l).enumerate() {
        if fill(r, row) {
            kernels::log_normalize(row);
            computed += 1;
        }
    }
    (out, computed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `log_normalize_rows_flat` / `log_sum_exp_rows_flat` equal the
    /// per-row kernels bit for bit on every backend leg: widths 1..=6
    /// (5 and 6 take the per-row fallback), 0..=9 rows (every remainder
    /// of the four-row staging block), and any mix of special rows.
    #[test]
    fn flat_row_kernels_match_per_row_kernels(
        l in 1usize..=6,
        // Spreads of a few nats keep every term of a row's sum
        // significant, so a changed summation order shows in the bits.
        kinds in proptest::collection::vec(
            (0u8..6, proptest::collection::vec(-4.0f64..4.0, 6)), 0..=9)
    ) {
        let data: Vec<f64> =
            kinds.iter().flat_map(|(kind, vals)| special_row(*kind, vals, l)).collect();

        let mut want = data.clone();
        want.chunks_exact_mut(l).for_each(kernels::log_normalize);
        let mut got = data.clone();
        kernels::log_normalize_rows_flat(l, &mut got);
        prop_assert_eq!(bits(&want), bits(&got), "normalize, width {}, rows {:?}", l, data);

        let want: Vec<f64> = data.chunks_exact(l).map(kernels::log_sum_exp).collect();
        let mut got = vec![0.0; kinds.len()];
        kernels::log_sum_exp_rows_flat(l, &data, &mut got);
        prop_assert_eq!(bits(&want), bits(&got), "lse, width {}, rows {:?}", l, data);
    }

    /// The multi-row E-step kernels equal a per-row fill-and-normalize,
    /// with golden/unanswered (skipped) rows anywhere in runs long
    /// enough to cross several row blocks.
    #[test]
    fn multi_row_e_step_kernels_match_per_row_reference(
        l in 1usize..=6,
        tasks in proptest::collection::vec(
            (0u8..4, proptest::collection::vec((0usize..5, 0usize..6), 0..4)), 0..60)
    ) {
        // kind 0: skipped (golden or unanswered); else answered.
        let table: Vec<f64> = (0..5 * l * l).map(|i| -0.37 * (i % 23) as f64 - 0.1).collect();
        let prior: Vec<f64> = (0..l).map(|j| -0.4 - 0.3 * j as f64).collect();
        let answers = |r: usize| (tasks[r].0 != 0).then(|| tasks[r].1.clone());

        let (want, want_n) = per_row_e_step(l, tasks.len(), |r, row| {
            let Some(ans) = answers(r) else { return false };
            row.copy_from_slice(&prior);
            for (worker, label) in ans {
                for (j, o) in row.iter_mut().enumerate() {
                    *o += table[worker * l * l + label % l + j * l];
                }
            }
            true
        });
        let mut got = vec![-5.5; tasks.len() * l];
        let got_n = crowd_stats::fused_posterior_rows(&mut got, &prior, &table, |r| {
            answers(r).map(|ans| ans.into_iter().map(|(w, label)| w * l * l + label % l))
        });
        prop_assert_eq!(bits(&want), bits(&got), "posterior rows, width {}", l);
        prop_assert_eq!(want_n, got_n);

        let (ln_c, ln_w) = (-0.2f64, -1.7f64);
        let (want, want_n) = per_row_e_step(l, tasks.len(), |r, row| {
            let Some(ans) = answers(r) else { return false };
            row.fill(0.0);
            for (worker, label) in ans {
                for (j, o) in row.iter_mut().enumerate() {
                    *o += if j == label % l { ln_c * worker as f64 } else { ln_w };
                }
            }
            true
        });
        let mut got = vec![-5.5; tasks.len() * l];
        let got_n = crowd_stats::fused_two_term_rows(&mut got, l, |r| {
            answers(r).map(|ans| {
                ans.into_iter().map(|(w, label)| (label % l, ln_c * w as f64, ln_w))
            })
        });
        prop_assert_eq!(bits(&want), bits(&got), "two-term rows, width {}", l);
        prop_assert_eq!(want_n, got_n);
    }
}

/// SIMD-vs-scalar leg equivalence: the AVX2 slice drivers must be
/// **bit-identical** (0 ULP) to the dispatcher's scalar polynomial leg
/// on every input — dispatch may never change results. The exhaustive
/// test walks every alignment offset of the slice start (the drivers
/// use unaligned loads; a 64-byte window of element offsets covers
/// every 32-byte-alignment phase) crossed with every length through
/// two 16-wide chunks, both 4-wide tail shapes, and the scalar
/// remainder, over inputs that mix in-window values with the screen's
/// demotion triggers (NaN, ±∞, ±700-magnitudes, subnormals, zeros) so
/// whole-chunk scalar demotion is exercised mid-slice. Compiled only
/// into fast-math x86_64 builds and skipped at runtime when the vector
/// leg is unavailable (no AVX2+FMA, or `CROWD_FORCE_SCALAR` vetoed it).
#[cfg(all(feature = "fast-math", target_arch = "x86_64"))]
mod simd_vs_scalar {
    use super::*;
    use crowd_stats::kernels::simd;

    /// The dispatcher's scalar legs, replicated per element (the lane
    /// shape of `map_lanes` is unobservable for elementwise ops).
    fn scalar_leg(op: &str, xs: &mut [f64]) {
        for x in xs.iter_mut() {
            *x = match op {
                "exp" => kernels::exp(*x),
                "ln" => kernels::ln(*x),
                "safe_ln" => kernels::safe_ln(*x),
                "sigmoid" => {
                    let e = kernels::exp(-x.abs());
                    if *x >= 0.0 {
                        1.0 / (1.0 + e)
                    } else {
                        e / (1.0 + e)
                    }
                }
                _ => unreachable!(),
            };
        }
    }

    fn simd_leg(op: &str, xs: &mut [f64]) {
        // SAFETY: callers check `avx2_available()` first.
        unsafe {
            match op {
                "exp" => simd::exp_slice_avx2(xs),
                "ln" => simd::ln_slice_avx2(xs),
                "safe_ln" => simd::safe_ln_slice_avx2(xs, 1e-12),
                "sigmoid" => simd::sigmoid_slice_avx2(xs),
                _ => unreachable!(),
            }
        }
    }

    /// Value pool mixing the vector cores' domain with every demotion
    /// class; period 13 is coprime to the 16/4 chunk widths, so chunks
    /// see every rotation of the pattern as offset and length vary.
    const POOL: [f64; 13] = [
        -0.5,
        27.3,
        -699.9,
        700.0, // outside the exp window, inside ln's
        709.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e-320, // subnormal
        f64::MIN_POSITIVE,
        1.0,
    ];

    #[test]
    fn every_offset_and_tail_length_is_bit_identical() {
        if !simd::avx2_available() {
            eprintln!("skipping: AVX2 leg unavailable");
            return;
        }
        for op in ["exp", "ln", "safe_ln", "sigmoid"] {
            for offset in 0..8 {
                for len in 0..=40 {
                    let buf: Vec<f64> = (0..offset + len + 8)
                        .map(|i| POOL[i % POOL.len()])
                        .collect();
                    let mut got = buf.clone();
                    let mut want = buf.clone();
                    simd_leg(op, &mut got[offset..offset + len]);
                    scalar_leg(op, &mut want[offset..offset + len]);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{op} offset {offset} len {len} elem {i}: \
                             simd {g:e} vs scalar {w:e}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random adversarial slices long enough to hit the 16-wide
        /// body several times: the two legs agree to the bit.
        #[test]
        fn random_slices_are_bit_identical(xs in proptest::collection::vec(adversarial(), 0..80)) {
            if !simd::avx2_available() {
                return Ok(());
            }
            for op in ["exp", "ln", "safe_ln", "sigmoid"] {
                let mut got = xs.clone();
                let mut want = xs.clone();
                simd_leg(op, &mut got);
                scalar_leg(op, &mut want);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} elem {} of {:e}: simd {:e} vs scalar {:e}",
                        op, i, xs[i], g, w
                    );
                }
            }
        }
    }
}

#[test]
fn empty_and_degenerate_slices() {
    // Empty slices are no-ops / identities.
    let mut empty: [f64; 0] = [];
    kernels::exp_slice(&mut empty);
    kernels::ln_slice(&mut empty);
    assert_eq!(crowd_stats::dist::log_sum_exp(&[]), f64::NEG_INFINITY);
    assert_eq!(kernels::weighted_log_dot(&[], &[]), 0.0);
    // All -inf (zero probability everywhere) → uniform.
    let mut xs = [f64::NEG_INFINITY; 3];
    crowd_stats::dist::log_normalize(&mut xs);
    assert!(xs.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-15));
}

#[test]
fn saturation_thresholds_match_std() {
    // The exact overflow/underflow saturation classes must agree with
    // std in both backends.
    let mut xs = [709.0, 710.0, 745.0, -745.0, -746.0, -800.0];
    kernels::exp_slice(&mut xs);
    assert!(xs[0].is_finite());
    assert_eq!(xs[1], f64::INFINITY);
    assert_eq!(xs[2], f64::INFINITY);
    assert!(
        xs[3] >= 0.0 && xs[3] < 1e-320,
        "deep underflow: {:e}",
        xs[3]
    );
    assert_eq!(xs[4], 0.0);
    assert_eq!(xs[5], 0.0);
}
