//! Fused single-pass row kernels for the E-step hot loops.
//!
//! PR 5 batched the transcendentals; these kernels batch the *passes*.
//! An EM E-step used to touch its hot row several times — init,
//! gather-and-accumulate, `log_sum_exp`, normalize, each a separate
//! sweep — and
//! the per-row `log_normalize` paid for two exp passes plus call
//! overhead on rows of length 2–4. Here each composite is one walk
//! over the data:
//!
//! - [`fused_posterior_rows`] — log-prior init + strided log-table
//!   gather/accumulate over each CSR task row of a contiguous run +
//!   log-sum-exp + normalize, written directly into the posterior rows
//!   (D&S/LFC/VI-MF shape);
//! - [`fused_two_term_rows`] — the correct/wrong two-term accumulate +
//!   normalize over a run of rows (ZC/GLAD shape);
//! - [`ln_map_into`]/[`safe_ln_map_into`]/[`exp_map_into`]/
//!   [`sigmoid_map_into`] — `f(x)`-of-computed pipelines (`safe_ln` of
//!   products, `sigmoid∘exp` chains) that fill from a closure and
//!   transform in cache-resident blocks instead of write-everything /
//!   transform-everything sweeps.
//!
//! The multi-row kernels accumulate `ROW_BLOCK` rows at a time into a
//! stack block and normalise the block with one
//! [`super::log_normalize_rows_flat`] call: the staged four-row blocks
//! on the scalar leg, one packed-kernel dispatch on the vector leg.
//!
//! Every fused kernel is **bit-identical** to the multi-pass
//! composition it replaces, on both legs: the element operations,
//! their association, and the summation orders are unchanged — only
//! the number of times the data crosses the cache changes. On the
//! vector leg the transcendentals run on the AVX2 mirror of libm
//! (itself bit-identical to libm).

use super::{
    exp_slice, ln_slice, log_normalize, log_normalize_rows_flat, safe_ln_slice, sigmoid_slice,
};

/// Posterior rows per block of the multi-row E-step kernels: a multiple
/// of the staged legs' four rows, and small enough (≤ 512 bytes at
/// ℓ = 4) that the block stays in L1 between accumulate and normalize.
const ROW_BLOCK: usize = 16;

/// Posterior E-step over a contiguous run of task rows, fused. `out`
/// holds the run's rows, ℓ = `log_prior.len()` wide. For row `r`,
/// `bases(r)` returns `None` to leave the row untouched (golden and
/// unanswered tasks), or the table bases of the task's answers: the row
/// becomes `log_prior`, plus `table[base + j·ℓ]` in every lane `j` for
/// each base in the order given, normalised by [`log_normalize`]'s
/// arithmetic. Returns the number of rows computed.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of ℓ (ℓ = 0 requires an
/// empty run) or a base walks off the table.
pub fn fused_posterior_rows<I: Iterator<Item = usize>>(
    out: &mut [f64],
    log_prior: &[f64],
    table: &[f64],
    mut bases: impl FnMut(usize) -> Option<I>,
) -> u64 {
    normalized_rows(out, log_prior.len(), |r, row| {
        let Some(bases) = bases(r) else {
            return false;
        };
        row.copy_from_slice(log_prior);
        let l = row.len();
        for b in bases {
            for (j, o) in row.iter_mut().enumerate() {
                *o += table[b + j * l];
            }
        }
        true
    })
}

/// Two-term posterior E-step over a contiguous run of `l`-wide rows,
/// fused. For row `r`, `terms(r)` returns `None` to leave the row
/// untouched, or its `(label, on, off)` terms: the row starts at zero,
/// gains `on` at `label` and `off` everywhere else for each term in the
/// order given, and is normalised by [`log_normalize`]'s arithmetic.
/// This is the ZC/GLAD accumulate shape, where each answer contributes
/// its log-correct weight to the answered label and its log-wrong
/// weight to every other label. Returns the number of rows computed.
///
/// # Panics
/// Panics if `out.len()` is not a multiple of `l` (`l == 0` requires an
/// empty run).
pub fn fused_two_term_rows<I: Iterator<Item = (usize, f64, f64)>>(
    out: &mut [f64],
    l: usize,
    mut terms: impl FnMut(usize) -> Option<I>,
) -> u64 {
    normalized_rows(out, l, |r, row| {
        let Some(terms) = terms(r) else {
            return false;
        };
        row.fill(0.0);
        for (label, on, off) in terms {
            for (j, o) in row.iter_mut().enumerate() {
                *o += if j == label { on } else { off };
            }
        }
        true
    })
}

/// The body shared by the multi-row kernels: `fill(r, row)` writes row
/// `r`'s log-domain values into `row` and returns `true`, or returns
/// `false` without writing to skip it. Filled rows are normalised —
/// blocks of [`ROW_BLOCK`] for `l ≤ 4`, the per-row path for wider
/// rows.
fn normalized_rows(
    out: &mut [f64],
    l: usize,
    mut fill: impl FnMut(usize, &mut [f64]) -> bool,
) -> u64 {
    if out.is_empty() {
        return 0;
    }
    assert!(
        l != 0 && out.len().is_multiple_of(l),
        "run of {} elements is not rows of width {l}",
        out.len()
    );
    match l {
        1 => normalized_row_blocks::<1>(out, fill),
        2 => normalized_row_blocks::<2>(out, fill),
        3 => normalized_row_blocks::<3>(out, fill),
        4 => normalized_row_blocks::<4>(out, fill),
        _ => {
            let mut computed = 0;
            for (r, row) in out.chunks_exact_mut(l).enumerate() {
                if fill(r, row) {
                    log_normalize(row);
                    computed += 1;
                }
            }
            computed
        }
    }
}

/// [`normalized_rows`] for `L ≤ 4`: filled rows gather into a stack
/// block, which is normalised and scattered back when full and once
/// more for the tail.
fn normalized_row_blocks<const L: usize>(
    out: &mut [f64],
    mut fill: impl FnMut(usize, &mut [f64]) -> bool,
) -> u64 {
    let (rows, _) = out.as_chunks_mut::<L>();
    let mut block = [[0.0f64; L]; ROW_BLOCK];
    let mut dest = [0usize; ROW_BLOCK];
    let mut filled = 0;
    let mut computed = 0;
    for r in 0..rows.len() {
        if fill(r, &mut block[filled]) {
            dest[filled] = r;
            filled += 1;
            computed += 1;
            if filled == ROW_BLOCK {
                normalize_block(&mut block, &dest, rows);
                filled = 0;
            }
        }
    }
    normalize_block(&mut block[..filled], &dest[..filled], rows);
    computed
}

/// One [`log_normalize_rows_flat`] call over a gathered block, then
/// `rows[dest[i]] ← block[i]`.
fn normalize_block<const L: usize>(block: &mut [[f64; L]], dest: &[usize], rows: &mut [[f64; L]]) {
    log_normalize_rows_flat(L, block.as_flattened_mut());
    for (row, &d) in block.iter().zip(dest) {
        rows[d] = *row;
    }
}

/// Fill/transform block size: big enough to amortise one dispatcher
/// call, small enough that the freshly written values are still in L1
/// when the transform pass reads them back.
const FILL_BLOCK: usize = 256;

macro_rules! map_into {
    ($out:ident, $f:ident, $slice_kernel:ident) => {{
        let mut start = 0;
        while start < $out.len() {
            let end = (start + FILL_BLOCK).min($out.len());
            for (i, o) in $out[start..end].iter_mut().enumerate() {
                *o = $f(start + i);
            }
            $slice_kernel(&mut $out[start..end]);
            start = end;
        }
    }};
}

/// `out[i] = ln(f(i))` — fill from the closure and take the log in
/// cache-resident blocks (the fused `ln`-of-products pass: the caller
/// computes the product/clamp in `f`, the transcendental runs on the
/// batched backend).
pub fn ln_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, ln_slice)
}

/// `out[i] = ln(max(f(i), 1e-12))` — the fused `safe_ln`-of-products
/// pass (log-table refresh from a probability table in one sweep).
pub fn safe_ln_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, safe_ln_slice)
}

/// `out[i] = exp(f(i))` — fused copy-and-exponentiate.
pub fn exp_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, exp_slice)
}

/// `out[i] = σ(f(i))` — the fused `sigmoid∘exp`-style pass: the caller
/// assembles the logit (e.g. `α_w · e^{ln β_t}` from gathered tables)
/// in `f`, the squash runs batched.
pub fn sigmoid_map_into(out: &mut [f64], mut f: impl FnMut(usize) -> f64) {
    map_into!(out, f, sigmoid_slice)
}

#[cfg(test)]
mod tests {
    use super::super::{log_normalize_scalar, safe_ln, sigmoid_slice};
    use super::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Rows of a run the E-step skips: golden and unanswered tasks,
    /// placed on both sides of every [`ROW_BLOCK`] boundary, in runs,
    /// and (in runs longer than a block) as the first and last rows.
    fn skipped(r: usize, rows: usize) -> bool {
        (rows > ROW_BLOCK && (r == 0 || r + 1 == rows))
            || (r > 0 && r.is_multiple_of(ROW_BLOCK))
            || r % ROW_BLOCK == ROW_BLOCK - 1
            || r % 7 == 3
            || (2 * ROW_BLOCK + 2..2 * ROW_BLOCK + 5).contains(&r)
    }

    /// Run lengths crossing zero, one and several blocks, with tails.
    const RUNS: [usize; 6] = [0, 1, 5, ROW_BLOCK, ROW_BLOCK + 3, 3 * ROW_BLOCK + 2];

    /// Sentinel left in skipped rows, which the kernels must not touch.
    const UNTOUCHED: f64 = -123.25;

    #[test]
    fn fused_posterior_row_matches_unfused_composition() {
        for l in 1..=7usize {
            let table: Vec<f64> = (0..l * l * 5).map(|i| -0.01 * i as f64 - 0.3).collect();
            let prior: Vec<f64> = (0..l).map(|j| -1.1 - 0.2 * j as f64).collect();
            let bases = |r: usize| [r % 5 * l * l, (r + 2) % 5 * l * l + l - 1, r % l];
            for rows in RUNS {
                // Unfused per-row reference: copy, strided accumulate,
                // normalize.
                let mut want = vec![UNTOUCHED; rows * l];
                let mut computed = 0;
                for (r, row) in want.chunks_exact_mut(l).enumerate() {
                    if skipped(r, rows) {
                        continue;
                    }
                    row.copy_from_slice(&prior);
                    for b in bases(r) {
                        let mut idx = b;
                        for o in row.iter_mut() {
                            *o += table[idx];
                            idx += l;
                        }
                    }
                    log_normalize_scalar(row);
                    computed += 1;
                }
                let mut got = vec![UNTOUCHED; rows * l];
                let n = fused_posterior_rows(&mut got, &prior, &table, |r| {
                    (!skipped(r, rows)).then(|| bases(r).into_iter())
                });
                assert_eq!(bits(&want), bits(&got), "l = {l}, rows = {rows}");
                assert_eq!(n, computed, "l = {l}, rows = {rows}");
            }
        }
    }

    #[test]
    fn fused_two_term_row_matches_unfused_composition() {
        for l in 1..=7usize {
            let terms = |r: usize| {
                [
                    (0usize, -0.1, -2.0),
                    (2, -0.4, -1.5),
                    (1, -0.2 - 0.01 * r as f64, -0.9),
                ]
                .map(|(label, on, off)| (label % l, on, off))
            };
            for rows in RUNS {
                let mut want = vec![UNTOUCHED; rows * l];
                let mut computed = 0;
                for (r, row) in want.chunks_exact_mut(l).enumerate() {
                    if skipped(r, rows) {
                        continue;
                    }
                    row.fill(0.0);
                    for (label, on, off) in terms(r) {
                        for (j, o) in row.iter_mut().enumerate() {
                            *o += if j == label { on } else { off };
                        }
                    }
                    log_normalize_scalar(row);
                    computed += 1;
                }
                let mut got = vec![UNTOUCHED; rows * l];
                let n = fused_two_term_rows(&mut got, l, |r| {
                    (!skipped(r, rows)).then(|| terms(r).into_iter())
                });
                assert_eq!(bits(&want), bits(&got), "l = {l}, rows = {rows}");
                assert_eq!(n, computed, "l = {l}, rows = {rows}");
            }
        }
    }

    #[test]
    fn map_into_kernels_match_fill_then_slice() {
        let src: Vec<f64> = (0..523).map(|i| 0.37 * (i as f64 - 200.0)).collect();
        let mut want: Vec<f64> = src.iter().map(|&x| safe_ln(x.abs() * 0.5)).collect();
        // The reference is fill-then-slice over the whole buffer; the
        // scalar `safe_ln` above equals it elementwise by construction.
        let mut got = vec![0.0; src.len()];
        safe_ln_map_into(&mut got, |i| src[i].abs() * 0.5);
        assert_eq!(bits(&want), bits(&got));

        want = src.clone();
        sigmoid_slice(&mut want);
        sigmoid_map_into(&mut got, |i| src[i]);
        assert_eq!(bits(&want), bits(&got));
    }

    /// The block gather/normalize/scatter of the multi-row kernels over
    /// degenerate and extreme rows (all `-inf`, NaN, `+inf`, offset by
    /// −800, tied maxima) matches the per-row kernel, skipped rows
    /// included.
    #[test]
    fn blocked_rows_match_per_row_log_normalize() {
        let row_of = |r: usize, l: usize| -> Vec<f64> {
            let mut row: Vec<f64> = (0..l)
                .map(|j| (((r * l + j) * 2654435761usize) % 1000) as f64 * 0.013 - 6.0)
                .collect();
            match r % 6 {
                0 => row.fill(f64::NEG_INFINITY),
                1 => row[r % l] = f64::NAN,
                2 => row[(r + 1) % l] = f64::INFINITY,
                3 => row.iter_mut().for_each(|x| *x -= 800.0),
                4 => row.fill(1.5),
                _ => {}
            }
            row
        };
        for l in 1..=6usize {
            for rows in RUNS {
                let mut want = vec![UNTOUCHED; rows * l];
                for (r, row) in want.chunks_exact_mut(l).enumerate() {
                    if !skipped(r, rows) {
                        row.copy_from_slice(&row_of(r, l));
                        log_normalize_scalar(row);
                    }
                }
                let mut got = vec![UNTOUCHED; rows * l];
                normalized_rows(&mut got, l, |r, row| {
                    if skipped(r, rows) {
                        return false;
                    }
                    row.copy_from_slice(&row_of(r, l));
                    true
                });
                assert_eq!(bits(&want), bits(&got), "l = {l}, rows = {rows}");
            }
        }
    }
}
