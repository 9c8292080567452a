//! Property tests for the batched transcendental kernels: batched
//! results must match the scalar libm reference elementwise over
//! adversarial inputs — subnormals, ±∞, NaN, ±700-magnitude arguments
//! (the exp overflow/underflow region), empty slices, and 1..=7-length
//! tails that never reach the 4-lane body.
//!
//! The contract is bit identity (0 ULP, NaN payloads aside) on both
//! legs: the scalar leg calls libm, and the vector leg mirrors glibc's
//! algorithms lane for lane, so any difference is a kernel bug. The
//! `simd_vs_scalar` module below drives the vector leg directly over
//! deterministic sweeps of every table entry and path boundary.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use crowd_stats::kernels::{self, ulp_diff};
use crowd_stats::DMat;

/// Per-element error bound against the scalar libm reference.
const ULP_BOUND: u64 = 0;

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
        prop_assert_eq!(got.to_bits(), want.to_bits(), "{} vs {}", got, want);
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

/// SIMD-vs-scalar leg equivalence: the AVX2 drivers must be
/// **bit-identical** to `f64::exp`/`f64::ln` per element on every input —
/// dispatch may never change results. Compiled on every x86_64 build and
/// skipped at run time when the vector leg is off (no AVX2+FMA, a libm
/// the probe rejects, or `CROWD_FORCE_SCALAR`).
#[cfg(target_arch = "x86_64")]
mod simd_vs_scalar {
    use super::*;
    use crowd_stats::kernels::simd;

    const OPS: [&str; 4] = ["exp", "ln", "safe_ln", "sigmoid"];

    /// The scalar leg, per element: libm itself.
    fn scalar_leg(op: &str, xs: &mut [f64]) {
        for x in xs.iter_mut() {
            *x = match op {
                "exp" => x.exp(),
                "ln" => x.ln(),
                "safe_ln" => x.max(1e-12).ln(),
                "sigmoid" => {
                    let e = (-x.abs()).exp();
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
        // SAFETY: every caller checks `avx2_available()` first, which
        // detected AVX2 and FMA.
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

    fn vector_leg_on() -> bool {
        let on = simd::avx2_available();
        if !on {
            eprintln!("skipping: vector leg unavailable");
        }
        on
    }

    /// Both legs of `op` over `xs`, compared bit for bit.
    fn assert_legs_agree(op: &str, xs: &[f64], ctx: &str) {
        let mut got = xs.to_vec();
        let mut want = xs.to_vec();
        simd_leg(op, &mut got);
        scalar_leg(op, &mut want);
        for (i, ((x, g), w)) in xs.iter().zip(&got).zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{op} {ctx} elem {i} of {x:e} ({:#018x}): simd {g:e} vs libm {w:e}",
                x.to_bits()
            );
        }
    }

    /// The neighbours of `x` one representable value below and above.
    fn around(x: f64) -> [f64; 3] {
        let up = |x: f64| {
            if x >= 0.0 {
                x.to_bits() + 1
            } else {
                x.to_bits() - 1
            }
        };
        let down = |x: f64| {
            if x > 0.0 {
                x.to_bits() - 1
            } else {
                x.to_bits() + 1
            }
        };
        [f64::from_bits(down(x)), x, f64::from_bits(up(x))]
    }

    /// Value pool mixing the vector cores' domain with every demotion
    /// class; period 13 is coprime to the 16/4 chunk widths, so chunks
    /// see every rotation of the pattern as offset and length vary.
    const POOL: [f64; 13] = [
        -0.5,
        27.3,
        -699.9,
        700.0, // outside the exp main path, inside ln's table path
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

    /// Every alignment offset of the slice start crossed with every
    /// length through two 16-wide chunks, both 4-wide tail shapes and
    /// the scalar remainder, over inputs that mix mirrored lanes with
    /// the screens' demotion triggers mid-slice.
    #[test]
    fn every_offset_and_tail_length_is_bit_identical() {
        if !vector_leg_on() {
            return;
        }
        for op in OPS {
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
                            "{op} offset {offset} len {len} elem {i}: simd {g:e} vs libm {w:e}"
                        );
                    }
                }
            }
        }
    }

    /// `exp` on every table index across the main path, at the ±512
    /// boundary (the last main-path value and the first fallback value
    /// on each side), around |x| = 2⁻⁵⁴ (the tiny path's edge), and where
    /// results go subnormal.
    #[test]
    fn exp_sweeps_every_table_index_and_path_edge() {
        if !vector_leg_on() {
            return;
        }
        // k = x·128/ln 2 steps by 37 (coprime to 128) across the whole
        // main path, with r at both ends and the middle of its range.
        let step = std::f64::consts::LN_2 / 128.0;
        let mut xs: Vec<f64> = (-94_600i64..=94_600)
            .step_by(37)
            .flat_map(|k| [-0.49, 0.0, 0.31, 0.49].map(|r| (k as f64 + r) * step))
            .collect();
        xs.extend(around(512.0));
        xs.extend(around(-512.0));
        let tiny = f64::from_bits(0x3c90_0000_0000_0000); // 2⁻⁵⁴
        xs.extend(around(tiny));
        xs.extend(around(-tiny));
        xs.extend([1e-300, -1e-300, 5e-324, -5e-324]);
        xs.extend([-708.4, -708.5, -720.0, -740.0, -744.4, -745.1, -745.2]);
        xs.extend([709.7, 709.8, 710.0]);
        assert_legs_agree("exp", &xs, "sweep");
        assert_legs_agree("sigmoid", &xs, "sweep");
    }

    /// `ln` on every table interval of `[0x1.6p-1, 0x1.6p0)` (start,
    /// middle, last value at exponents across the normal range, and 256
    /// points at exponents −1 and 1), the
    /// near-1 window's edges ±1 ulp, a dense walk of the window, and 1.0
    /// itself.
    #[test]
    fn ln_sweeps_every_table_interval_and_the_near_one_window() {
        if !vector_leg_on() {
            return;
        }
        let mut xs = Vec::new();
        for i in 0..128u64 {
            let z = 0x3fe6_0000_0000_0000 + (i << 45);
            for bits in [z, z + (1 << 44), z + (1 << 45) - 1] {
                for e in [-1020i64, -300, -1, 0, 1, 300, 1020] {
                    xs.push(f64::from_bits(bits.wrapping_add((e << 52) as u64)));
                }
            }
            // 256 points across the interval at results of magnitude
            // below 1, where an entry off by a fraction of an ulp moves
            // some rounding.
            for j in 0..256u64 {
                let bits = z + j * ((1 << 45) / 256) + 0x1_2345_6789;
                xs.extend([-1i64, 1].map(|e| f64::from_bits(bits.wrapping_add((e << 52) as u64))));
            }
        }
        for edge in [0x3fee_0000_0000_0000u64, 0x3ff1_0900_0000_0000] {
            xs.extend(around(f64::from_bits(edge)));
        }
        xs.extend(around(1.0));
        xs.extend((0..4096).map(|j| 0.9375 + j as f64 * (0.127 / 4096.0)));
        xs.extend([f64::MIN_POSITIVE, f64::MAX, 1e-12, 1e-300, 1e300]);
        assert_legs_agree("ln", &xs, "sweep");
        assert_legs_agree("safe_ln", &xs, "sweep");
    }

    /// Each special value at every lane of a 4-lane chunk, of a 16-wide
    /// chunk, and of the 0–3-element tail, among ordinary values.
    #[test]
    fn special_values_at_every_lane_and_in_the_tail() {
        if !vector_leg_on() {
            return;
        }
        let specials = [
            0.0,
            -0.0,
            1e-310,
            -2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for op in OPS {
            for special in specials {
                for len in 1..=23usize {
                    for at in 0..len {
                        let mut xs: Vec<f64> = (0..len).map(|i| 0.75 + 0.1 * i as f64).collect();
                        xs[at] = special;
                        assert_legs_agree(op, &xs, &format!("{special:e} at {at} of {len}"));
                    }
                }
            }
        }
    }

    /// Per-row reference of the packed kernels: the scalar kernel's
    /// arithmetic, on libm.
    fn reference_log_normalize(row: &mut [f64]) {
        let lse = reference_log_sum_exp(row);
        if !lse.is_finite() {
            let uniform = 1.0 / row.len() as f64;
            row.iter_mut().for_each(|x| *x = uniform);
            return;
        }
        row.iter_mut().for_each(|x| *x = (*x - lse).exp());
    }

    /// The packed row kernels at ℓ = 1…4 with spreads on both sides of
    /// their −510 screen (and past the `exp` main path), tied maxima and
    /// special rows, at every row count through three four-row blocks.
    #[test]
    fn packed_rows_around_the_screen_match_per_row_reference() {
        if !vector_leg_on() {
            return;
        }
        let spreads = [
            -0.25,
            -509.0,
            -509.999_999_999,
            -510.0,
            -510.000_000_001,
            -510.5,
            -511.9,
            -512.0,
            -513.0,
            -745.5,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for l in 1..=4usize {
            let mut pool = Vec::new();
            for (s, &d) in spreads.iter().enumerate() {
                let max = 3.25 - s as f64;
                // The spread lane last, then first; the rest tie the max.
                let mut row = vec![max; l];
                row[l - 1] = max + d;
                pool.push(row.clone());
                row.reverse();
                pool.push(row);
            }
            for rows in 0..=13usize {
                for shift in 0..pool.len() {
                    let data: Vec<f64> = (0..rows)
                        .flat_map(|r| pool[(r + shift) % pool.len()].clone())
                        .collect();
                    let mut want = data.clone();
                    want.chunks_exact_mut(l).for_each(reference_log_normalize);
                    let mut got = data.clone();
                    let want_lse: Vec<f64> =
                        data.chunks_exact(l).map(reference_log_sum_exp).collect();
                    let mut got_lse = vec![0.0; rows];
                    // SAFETY: the vector leg is on (AVX2 and FMA were
                    // detected); `data` is `rows` rows of width `l` and
                    // `got_lse` has one slot per row.
                    unsafe {
                        match l {
                            1 => {
                                simd::log_normalize_rows_packed::<1>(&mut got);
                                simd::log_sum_exp_rows_packed::<1>(&data, &mut got_lse);
                            }
                            2 => {
                                simd::log_normalize_rows_packed::<2>(&mut got);
                                simd::log_sum_exp_rows_packed::<2>(&data, &mut got_lse);
                            }
                            3 => {
                                simd::log_normalize_rows_packed::<3>(&mut got);
                                simd::log_sum_exp_rows_packed::<3>(&data, &mut got_lse);
                            }
                            _ => {
                                simd::log_normalize_rows_packed::<4>(&mut got);
                                simd::log_sum_exp_rows_packed::<4>(&data, &mut got_lse);
                            }
                        }
                    }
                    let ctx = format!("l = {l}, rows = {rows}, shift = {shift}");
                    assert_eq!(bits(&want), bits(&got), "normalize {ctx}: {data:?}");
                    assert_eq!(bits(&want_lse), bits(&got_lse), "lse {ctx}: {data:?}");
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
            for op in OPS {
                let mut got = xs.clone();
                let mut want = xs.clone();
                simd_leg(op, &mut got);
                scalar_leg(op, &mut want);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{} elem {} of {:e}: simd {:e} vs libm {:e}",
                        op, i, xs[i], g, w
                    );
                }
            }
        }
    }
}

/// On a glibc host with AVX2 and FMA and no veto, the probe must pass
/// and the dispatchers must take the vector leg: a mirror that drifted
/// from libm (a table typo, a changed contraction) fails here instead of
/// silently running every kernel on the scalar leg.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
fn vector_leg_is_taken_on_avx2_fma_hosts() {
    let vetoed = std::env::var("CROWD_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    let cpu =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    if vetoed || !cpu {
        eprintln!("skipping: vetoed ({vetoed}) or no AVX2+FMA ({cpu})");
        return;
    }
    assert_eq!(
        kernels::lanes_active(),
        4,
        "AVX2+FMA host, no veto, yet the vector leg is off: the probe found the mirror \
         disagreeing with this libm"
    );
    assert_eq!(kernels::backend_name(), "std-avx2");
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
    // libm on both legs.
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
