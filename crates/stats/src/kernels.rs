//! Batched transcendental kernels for the EM hot loops.
//!
//! Every iterative method in the benchmark spends its inner time on
//! `exp`/`ln` over per-task posterior rows (the E-step) and per-edge
//! likelihood terms. This module is the one place that work happens:
//! 4-lane array kernels over contiguous slices (the rows of a [`DMat`]),
//! written so the element loops have constant trip counts.
//!
//! # One contract, two legs
//!
//! Every kernel returns the bits of the platform libm — `f64::exp` and
//! `f64::ln` applied element by element, in the scalar code's order.
//! The kernels only batch, never reassociate: elementwise ops are
//! applied element by element, and the [`log_sum_exp`] reduction keeps
//! the exact left-to-right summation order. The equivalence fixtures
//! (`crowd-core/tests/fixtures/equivalence.tsv`) pin this. Two legs keep
//! the contract, chosen once per process at run time:
//!
//! - **scalar (`std`)**: every lane calls `f64::exp`/`f64::ln`. This is
//!   the reference, and the leg on every host the vector leg does not
//!   cover.
//! - **vector (`std-avx2`)**: [`simd`] evaluates glibc's own `exp` and
//!   `log` algorithms (the `__exp_fma`/`__log_fma` builds of Arm's
//!   optimized-routines, over the same 128-entry tables) four lanes at a
//!   time with AVX2 and FMA intrinsics, and hands every lane off their
//!   main paths to libm. It is taken when the CPU has AVX2 and FMA and a
//!   one-time probe finds the mirror bit-identical to the linked libm on
//!   inputs reaching every table entry; `CROWD_FORCE_SCALAR` in the
//!   environment, or [`force_scalar`] at run time, vetoes it. A host whose
//!   libm is another algorithm fails the probe and keeps the scalar leg.
//!
//! [`backend_name`]/[`lanes_active`] report which leg the dispatchers
//! take, for bench artifacts and tests.
//!
//! Tail handling: slices are processed in chunks of [`LANES`] with a
//! scalar remainder loop; lengths 0..=3 take only the remainder path.
//! Empty slices are no-ops ([`log_sum_exp`] of an empty slice is
//! `-inf`, the sum of zero terms, as before).
//!
//! The [`fused`] submodule builds single-pass row kernels (gather +
//! accumulate + log-sum-exp + normalize, `ln`/`sigmoid`-of-computed
//! pipelines) on top of the same dispatchers, so E-step data is touched
//! once per iteration instead of once per op.

use crate::dmat::DMat;

/// The clamp used by the log-domain tables everywhere in the codebase:
/// probabilities are floored at `1e-12` before taking the log, keeping
/// degenerate zero-probability cells at a large-but-finite `≈ -27.6`
/// instead of `-inf` (which would poison posterior sums).
pub const SAFE_LN_EPS: f64 = 1e-12;

/// Lane width of the batched kernels. Four `f64`s fill one AVX2
/// register (and two NEON/SSE2 registers); the chunked loops below have
/// this constant trip count so the compiler unrolls or vectorises them.
pub const LANES: usize = 4;

#[cfg(target_arch = "x86_64")]
pub mod simd;

/// Stub for non-x86_64 targets: the vector leg never exists and the
/// dispatchers always take the scalar path.
#[cfg(not(target_arch = "x86_64"))]
pub mod simd {
    //! Non-x86_64 stub of the AVX2 backend (always inactive).

    /// Always `false` off x86_64.
    pub fn avx2_available() -> bool {
        false
    }

    /// Always `false` off x86_64.
    pub fn avx2_active() -> bool {
        false
    }

    /// No-op off x86_64.
    #[doc(hidden)]
    pub fn force_scalar(_on: bool) {}
}

pub mod fused;

pub use simd::force_scalar;

/// Name of the leg the slice dispatchers take right now: `"std"` (libm
/// per element) or `"std-avx2"` (glibc's algorithms on AVX2 lanes, the
/// same bits). Recorded per row in the kernels bench artifact.
pub fn backend_name() -> &'static str {
    if simd::avx2_active() {
        "std-avx2"
    } else {
        "std"
    }
}

/// Vector width of the active leg: 4 on `std-avx2`, 1 on `std` (the
/// 4-lane chunking of the scalar loops is a code shape, not a hardware
/// width).
pub fn lanes_active() -> usize {
    if simd::avx2_active() {
        LANES
    } else {
        1
    }
}

/// The `x.max(1e-12).ln()` clamp idiom, centralised.
#[inline(always)]
pub fn safe_ln(x: f64) -> f64 {
    x.max(SAFE_LN_EPS).ln()
}

/// [`safe_ln`] with a caller-chosen floor (VI-MF's qualification
/// initialisation clamps at `1e-9` rather than the common `1e-12`).
#[inline(always)]
pub fn safe_ln_eps(x: f64, eps: f64) -> f64 {
    x.max(eps).ln()
}

/// The overflow-stable two-sided logistic `σ(x) = 1/(1+exp(−x))`: both
/// sides evaluate `exp(−|x|)` and differ only in the final select.
#[inline(always)]
fn sigmoid(x: f64) -> f64 {
    let e = (-x.abs()).exp();
    if x >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    }
}

/// Apply `f` to every element, 4 lanes at a time. The chunk is
/// reborrowed as `&mut [f64; LANES]` so the inner loop has a constant
/// trip count (the autovectorisation-friendly shape); the remainder
/// loop handles lengths `1..=LANES-1` and slice tails.
#[inline(always)]
fn map_lanes(xs: &mut [f64], f: impl Fn(f64) -> f64) {
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let lanes: &mut [f64; LANES] = chunk.try_into().expect("exact chunk");
        for lane in lanes.iter_mut() {
            *lane = f(*lane);
        }
    }
    for x in chunks.into_remainder() {
        *x = f(*x);
    }
}

/// `x[i] ← exp(x[i])` in place.
pub fn exp_slice(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::exp_slice_avx2(xs) };
        return;
    }
    map_lanes(xs, f64::exp);
}

/// `x[i] ← ln(x[i])` in place.
pub fn ln_slice(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::ln_slice_avx2(xs) };
        return;
    }
    map_lanes(xs, f64::ln);
}

/// `x[i] ← ln(max(x[i], 1e-12))` in place — the row-batched form of
/// [`safe_ln`], used to refresh whole log-domain confusion tables in
/// one sweep.
pub fn safe_ln_slice(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::safe_ln_slice_avx2(xs, SAFE_LN_EPS) };
        return;
    }
    map_lanes(xs, safe_ln);
}

/// `x[i] ← σ(x[i]) = 1/(1+exp(−x[i]))` in place, in the
/// overflow-stable two-sided form. Bit-identical to the scalar
/// `sigmoid` the logistic methods (GLAD, Multi) used: both sides
/// evaluate `exp(−|x|)` and differ only in the final select.
pub fn sigmoid_slice(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma.
        unsafe { simd::sigmoid_slice_avx2(xs) };
        return;
    }
    map_lanes(xs, sigmoid);
}

/// Numerically stable `log(Σ exp(x_i))`.
///
/// Returns negative infinity on an empty slice (the sum of zero
/// terms). The summation is deliberately sequential left-to-right — a
/// lane-split reduction would reassociate the sum and change low bits,
/// breaking the default build's bit-exactness contract. The max
/// element contributes `exp(0) = 1.0` exactly, so that libm call is
/// skipped; this changes no bit of the sum.
#[inline]
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if xs.len() == LANES && simd::avx2_active() {
        let row: &[f64; LANES] = xs.try_into().expect("length checked");
        // SAFETY: detection verified avx2+fma.
        if let Some(lse) = unsafe { simd::log_sum_exp4(row) } {
            return lse;
        }
    }
    log_sum_exp_scalar(xs)
}

/// The scalar [`log_sum_exp`] body — also the vector paths' fallback.
#[inline]
pub(crate) fn log_sum_exp_scalar(xs: &[f64]) -> f64 {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return max; // empty, or all -inf
    }
    let sum: f64 = xs
        .iter()
        .map(|&x| if x == max { 1.0 } else { (x - max).exp() })
        .sum();
    max + sum.ln()
}

/// Convert a log-probability vector into a normalized probability
/// vector in place, stably. Degenerate input (all `-inf`, or an empty
/// slice) spreads mass uniformly. The ℓ = 4 posterior shape takes an
/// in-register vector path on `std-avx2` (see [`simd::log_normalize4`]).
#[inline]
pub fn log_normalize(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if xs.len() == LANES && simd::avx2_active() {
        let row: &mut [f64; LANES] = xs.try_into().expect("length checked");
        // SAFETY: detection verified avx2+fma.
        if unsafe { simd::log_normalize4(row) } {
            return;
        }
    }
    log_normalize_scalar(xs)
}

/// The scalar [`log_normalize`] body — also the fallback the vector
/// paths demote to, so it must never re-enter the dispatcher.
pub(crate) fn log_normalize_scalar(xs: &mut [f64]) {
    let lse = log_sum_exp_scalar(xs);
    if !lse.is_finite() {
        let uniform = 1.0 / xs.len().max(1) as f64;
        xs.iter_mut().for_each(|x| *x = uniform);
        return;
    }
    map_lanes(xs, |x| (x - lse).exp());
}

/// [`log_normalize`] applied to every row of a matrix — the whole-
/// posterior form of the E-step's final step, through the same legs as
/// [`log_normalize_rows_flat`].
pub fn log_normalize_rows(m: &mut DMat) {
    if m.cols() != 0 {
        log_normalize_rows_flat(m.cols(), m.data_mut());
    }
}

/// Rows per block of the staged scalar row kernels
/// ([`log_normalize_rows_flat`], [`log_sum_exp_rows_flat`]).
const STAGE_ROWS: usize = 4;

/// Every row's [`log_sum_exp_scalar`] for one block of [`STAGE_ROWS`]
/// rows, one step at a time across the block: all maxima, then all
/// `exp(x − max)` terms, then all `ln`s. Within a row the arithmetic is
/// the per-row kernel's, op for op — the `f64::max` fold, the exact
/// `1.0` for the max lane, the left-to-right `Sum`, and `lse = max` for
/// a row whose max is not finite — so the result is bit-identical. What
/// changes is the schedule: a row's `exp` → sum → `ln` chain is
/// dependent, but the block's four chains are not, so their libm calls
/// overlap in the pipeline instead of each paying the call's full
/// latency.
#[inline(always)]
fn staged_log_sum_exp<const L: usize>(rows: &[[f64; L]; STAGE_ROWS]) -> [f64; STAGE_ROWS] {
    let max: [f64; STAGE_ROWS] =
        std::array::from_fn(|r| rows[r].iter().copied().fold(f64::NEG_INFINITY, f64::max));
    let mut terms = [[0.0f64; L]; STAGE_ROWS];
    for ((t, row), &m) in terms.iter_mut().zip(rows).zip(&max) {
        if m.is_finite() {
            for (t, &x) in t.iter_mut().zip(row) {
                *t = if x == m { 1.0 } else { (x - m).exp() };
            }
        }
    }
    let mut lse = max;
    for (lse, t) in lse.iter_mut().zip(&terms) {
        if lse.is_finite() {
            *lse += t.iter().sum::<f64>().ln();
        }
    }
    lse
}

/// The scalar leg (`std`) of [`log_normalize_rows_flat`]: staged blocks for `cols ≤ 4`, the
/// per-row kernel for wider rows.
fn log_normalize_rows_scalar(cols: usize, data: &mut [f64]) {
    match cols {
        1 => log_normalize_rows_staged::<1>(data),
        2 => log_normalize_rows_staged::<2>(data),
        3 => log_normalize_rows_staged::<3>(data),
        4 => log_normalize_rows_staged::<4>(data),
        _ => data.chunks_exact_mut(cols).for_each(log_normalize_scalar),
    }
}

/// The scalar leg of [`log_sum_exp_rows_flat`], split like
/// [`log_normalize_rows_scalar`].
fn log_sum_exp_rows_scalar(cols: usize, data: &[f64], out: &mut [f64]) {
    match cols {
        1 => log_sum_exp_rows_staged::<1>(data, out),
        2 => log_sum_exp_rows_staged::<2>(data, out),
        3 => log_sum_exp_rows_staged::<3>(data, out),
        4 => log_sum_exp_rows_staged::<4>(data, out),
        _ => {
            for (row, o) in data.chunks_exact(cols).zip(out.iter_mut()) {
                *o = log_sum_exp_scalar(row);
            }
        }
    }
}

/// [`log_normalize_rows_scalar`] for `L ≤ 4`: each block of
/// [`STAGE_ROWS`] rows runs [`staged_log_sum_exp`] and then every row's
/// `exp(x − lse)` (uniform mass for a non-finite `lse`, as in
/// [`log_normalize_scalar`]); the `< STAGE_ROWS`-row remainder runs the
/// per-row kernel.
fn log_normalize_rows_staged<const L: usize>(data: &mut [f64]) {
    let (rows, _) = data.as_chunks_mut::<L>();
    let mut blocks = rows.chunks_exact_mut(STAGE_ROWS);
    for block in &mut blocks {
        let block: &mut [[f64; L]; STAGE_ROWS] = block.try_into().expect("exact block");
        let lses = staged_log_sum_exp(block);
        for (row, lse) in block.iter_mut().zip(lses) {
            if lse.is_finite() {
                for x in row.iter_mut() {
                    *x = (*x - lse).exp();
                }
            } else {
                *row = [1.0 / L as f64; L];
            }
        }
    }
    for row in blocks.into_remainder() {
        log_normalize_scalar(row);
    }
}

/// [`log_sum_exp_rows_scalar`] for `L ≤ 4`: staged blocks as in
/// [`log_normalize_rows_staged`], per-row remainder.
fn log_sum_exp_rows_staged<const L: usize>(data: &[f64], out: &mut [f64]) {
    let (rows, _) = data.as_chunks::<L>();
    let mut blocks = rows.chunks_exact(STAGE_ROWS);
    let mut outs = out.chunks_exact_mut(STAGE_ROWS);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        o.copy_from_slice(&staged_log_sum_exp(block.try_into().expect("exact block")));
    }
    for (row, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
        *o = log_sum_exp_scalar(row);
    }
}

/// [`log_normalize`] applied to each `cols`-wide row of a packed flat
/// buffer — bit-identical to calling it row by row. This is the kernel
/// for hot loops that softmax many tiny rows (Minimax's dual ascent
/// normalises one ℓ-wide model row per (answer, hypothesis) pair, the
/// multi-row E-step kernels in [`fused`] a block of posterior rows).
/// Narrow rows (`cols ≤ 4`, the posterior shapes) are batched:
///
/// - on `std-avx2`, four rows per vector iteration
///   ([`simd::log_normalize_rows_packed`]): one dispatch for the whole
///   buffer, and the per-row `ln` vectorises **across** rows;
/// - on `std`, four rows per staged block — every row's max, then every row's `exp(x − max)`
///   terms, then every row's `ln`, then every row's `exp(x − lse)` — so
///   neighbouring rows' `exp`/`ln` calls overlap instead of running at
///   libm latency.
///
/// Wider rows run the per-row kernel.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols` (`cols == 0`
/// requires an empty buffer).
pub fn log_normalize_rows_flat(cols: usize, data: &mut [f64]) {
    if data.is_empty() {
        return;
    }
    assert!(
        cols != 0 && data.len().is_multiple_of(cols),
        "flat buffer of {} elements is not rows of width {cols}",
        data.len()
    );
    #[cfg(target_arch = "x86_64")]
    if cols <= LANES && simd::avx2_active() {
        // SAFETY: detection verified avx2+fma; length checked above.
        unsafe {
            match cols {
                1 => simd::log_normalize_rows_packed::<1>(data),
                2 => simd::log_normalize_rows_packed::<2>(data),
                3 => simd::log_normalize_rows_packed::<3>(data),
                _ => simd::log_normalize_rows_packed::<4>(data),
            }
        }
        return;
    }
    log_normalize_rows_scalar(cols, data);
}

/// [`log_sum_exp`] of each `cols`-wide row of a packed flat buffer,
/// written to `out` — bit-identical to the per-row call, batched like
/// [`log_normalize_rows_flat`] on every leg.
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `cols` or `out` is not
/// exactly one element per row.
pub fn log_sum_exp_rows_flat(cols: usize, data: &[f64], out: &mut [f64]) {
    if data.is_empty() && out.is_empty() {
        return;
    }
    assert!(
        cols != 0 && data.len().is_multiple_of(cols) && out.len() == data.len() / cols,
        "flat buffer of {} elements / out of {} is not rows of width {cols}",
        data.len(),
        out.len()
    );
    #[cfg(target_arch = "x86_64")]
    if cols <= LANES && simd::avx2_active() {
        // SAFETY: detection verified avx2+fma; lengths checked above.
        unsafe {
            match cols {
                1 => simd::log_sum_exp_rows_packed::<1>(data, out),
                2 => simd::log_sum_exp_rows_packed::<2>(data, out),
                3 => simd::log_sum_exp_rows_packed::<3>(data, out),
                _ => simd::log_sum_exp_rows_packed::<4>(data, out),
            }
        }
        return;
    }
    log_sum_exp_rows_scalar(cols, data, out);
}

/// `Σ_i w_i · ln(max(x_i, 1e-12))` — the expected-log-likelihood
/// building block (posterior row dotted with a clamped log of a model
/// row). Sequential accumulation; on `std-avx2` the `ln`s run four
/// lanes at a time.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn weighted_log_dot(weights: &[f64], xs: &[f64]) -> f64 {
    assert_eq!(
        weights.len(),
        xs.len(),
        "weighted_log_dot operand length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_active() {
        // SAFETY: detection verified avx2+fma; lengths checked above.
        // `None` (a +∞ input) redoes the whole sum on libm: rare, same
        // bits.
        if let Some(acc) = unsafe { simd::weighted_log_dot_avx2(weights, xs, SAFE_LN_EPS) } {
            return acc;
        }
    }
    weights.iter().zip(xs).map(|(&w, &x)| w * safe_ln(x)).sum()
}

/// Distance between two `f64`s in representable-value steps, treating
/// NaN == NaN as zero and mismatched special-value classes (one NaN,
/// or one infinite) as `u64::MAX`.
///
/// Test support for the bit-contract checks in
/// `tests/kernel_properties.rs`, where NaN results of the kernels and
/// the libm reference count as equal whatever their payload; hidden from
/// the documented API.
#[doc(hidden)]
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        return 0;
    }
    if a.is_nan() != b.is_nan() || a.is_infinite() != b.is_infinite() {
        return u64::MAX;
    }
    let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
    // Map the signed-magnitude float order onto the integer line.
    let key = |i: i64| if i < 0 { i64::MIN - i } else { i };
    key(ia).abs_diff(key(ib))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The slice-vs-scalar and sigmoid-vs-reference comparisons live in
    // `tests/kernel_properties.rs`, which covers them over adversarial
    // inputs on both legs; the unit tests here pin the pieces the
    // property file does not reach (the clamp idiom and row semantics).

    #[test]
    fn safe_ln_matches_the_clamp_idiom() {
        for &x in &[0.0, 1e-300, 1e-12, 0.5, 1.0, 3.7] {
            assert_eq!(safe_ln(x).to_bits(), x.max(1e-12).ln().to_bits());
        }
        assert_eq!(safe_ln(0.0), 1e-12f64.ln());
        assert_eq!(safe_ln_eps(0.0, 1e-9), 1e-9f64.ln());
    }

    #[test]
    fn log_sum_exp_keeps_reference_semantics() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        let xs = [-1000.0, -1000.0];
        assert!((log_sum_exp(&xs) - (-1000.0 + 2.0f64.ln())).abs() < 1e-10);
        let ys = [700.0, 710.0];
        assert!((log_sum_exp(&ys) - (710.0 + (1.0 + (-10.0f64).exp()).ln())).abs() < 1e-10);
    }

    #[test]
    fn log_normalize_rows_normalizes_every_row() {
        let mut m = DMat::from_rows(&[
            vec![-800.0, -801.0, -802.0],
            vec![0.0, 0.0, 0.0],
            vec![f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY],
        ]);
        log_normalize_rows(&mut m);
        for i in 0..3 {
            let sum: f64 = m.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
        }
        assert!(m.row(0)[0] > m.row(0)[1]);
        // Degenerate row → uniform.
        assert!(m.row(2).iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-15));
    }

    /// `rows` rows of width `l`, cycling (from `shift`) through the row
    /// kinds the staged legs must keep: ordinary, all `-inf`, holding
    /// NaN, holding `+inf`, offset by −800, and tied maxima.
    fn staged_fixture(l: usize, rows: usize, shift: usize) -> Vec<f64> {
        let mut data = Vec::with_capacity(rows * l);
        for r in 0..rows {
            let mut row: Vec<f64> = (0..l).map(|j| 0.7 * j as f64 - 0.3 * r as f64).collect();
            match (r + shift) % 6 {
                1 => row.fill(f64::NEG_INFINITY),
                2 => row[r % l] = f64::NAN,
                3 => row[(r + 1) % l] = f64::INFINITY,
                4 => row.iter_mut().for_each(|x| *x -= 800.0),
                5 => {
                    row[0] = 2.5;
                    row[l - 1] = 2.5;
                }
                _ => {}
            }
            data.extend(row);
        }
        data
    }

    #[test]
    fn staged_legs_match_per_row_kernels_bitwise() {
        for l in 1..=6usize {
            for rows in 0..=9usize {
                for shift in 0..6 {
                    let data = staged_fixture(l, rows, shift);
                    let ctx = format!("l = {l}, rows = {rows}, shift = {shift}");

                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

                    let mut want = data.clone();
                    want.chunks_exact_mut(l).for_each(log_normalize_scalar);
                    let mut got = data.clone();
                    log_normalize_rows_scalar(l, &mut got);
                    assert_eq!(bits(&want), bits(&got), "normalize {ctx}");

                    let want: Vec<f64> = data.chunks_exact(l).map(log_sum_exp_scalar).collect();
                    let mut got = vec![0.0; rows];
                    log_sum_exp_rows_scalar(l, &data, &mut got);
                    assert_eq!(bits(&want), bits(&got), "lse {ctx}");
                }
            }
        }
    }

    #[test]
    fn weighted_log_dot_matches_open_coded_form() {
        let w = [0.2, 0.5, 0.3];
        let x = [0.9, 0.0, 1e-14];
        let expect: f64 = w.iter().zip(&x).map(|(&w, &x)| w * safe_ln(x)).sum();
        assert_eq!(weighted_log_dot(&w, &x).to_bits(), expect.to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn weighted_log_dot_rejects_ragged_operands() {
        weighted_log_dot(&[1.0], &[1.0, 2.0]);
    }
}
