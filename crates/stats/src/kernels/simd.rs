//! AVX2 vector lanes for the `fast-math` polynomial cores.
//!
//! The scalar polynomial `exp`/`ln` in [`super::fast`] are straight-line
//! arithmetic, but LLVM does not auto-vectorise them through the
//! dispatcher call sites (before this module, the kernels microbench
//! measured `exp_slice` at ~4.9 ns/elem vs ~4.8 for scalar `std` — no
//! vector win at all). This module is the explicit version: the same
//! Cody–Waite reduction and minimax polynomials evaluated four lanes at
//! a time with `core::arch::x86_64` intrinsics.
//!
//! # Bit-identity contract
//!
//! The vector cores are **bit-identical** to the scalar polynomial,
//! lane for lane. Every operation is an IEEE-exact per-lane op
//! (`mul`/`add`/`sub`/`div`/compare/blend and integer bit surgery) in
//! the exact association the scalar code uses; FMA *contraction* is
//! deliberately not emitted anywhere (fusing a multiply-add changes the
//! low bits and would fork the two legs). Runtime dispatch therefore
//! never changes a result: `fast-math-scalar` and `fast-math-avx2` are
//! the same function of the input, which is what lets the property
//! tests assert 0 ULP between the legs and keeps the pinned per-method
//! fixture tolerances valid regardless of which CPU ran them. (FMA is
//! still part of the *detection* gate so the backend name pins a stable
//! ISA level; the door stays open for a future backend that renegotiates
//! the contract.)
//!
//! The one scalar accommodation: `fast::exp` computes its reduction
//! index with `round_ties_even`, matching `_mm256_round_pd`'s
//! round-to-nearest-even (Rust's `f64::round` rounds halves away from
//! zero; either choice of `k` at an exact tie is a valid reduction
//! within the ≤4-ULP contract, but the two legs must agree).
//!
//! # Dispatch, alignment, tails, special values
//!
//! - **Detection** runs once ([`avx2_available`]): `avx2 && fma` via
//!   `is_x86_feature_detected!`, vetoed by `CROWD_FORCE_SCALAR` in the
//!   environment. [`force_scalar`] flips the same veto at runtime for
//!   benches/tests that measure both legs in one process.
//! - **Alignment**: all loads/stores are unaligned (`loadu`/`storeu`);
//!   callers hand us arbitrary row slices and split loops on alignment
//!   would fork the lane/tail boundary (and with it the bit pattern of
//!   *which* leg computed an element — identical legs make it moot, but
//!   unaligned-everywhere keeps the code one loop).
//! - **Tails**: slices are processed in chunks of 16 (four independent
//!   vectors), then a 4-wide step catches 4..=15-element remainders,
//!   and the last 0..=3 elements go through the scalar polynomial.
//!   Identical legs mean the tail boundaries are unobservable in the
//!   output.
//! - **Special values**: each 4-lane chunk is screened with a compare +
//!   movemask; any lane outside the branch-free core's domain (NaN,
//!   ±∞, exp overflow/underflow ranges, `ln` of zero/negative/
//!   subnormal inputs) routes the *whole chunk* through the scalar
//!   polynomial, which owns the IEEE edge semantics. The screen windows
//!   are conservative so the vector core never reaches the multi-step
//!   scale paths of `scale_by_pow2`.

#![allow(unsafe_code)]

use core::arch::x86_64::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use super::fast;

/// Runtime veto flipped by [`force_scalar`]; ORed with the
/// `CROWD_FORCE_SCALAR` environment veto captured at detection time.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// One-time CPU feature detection: AVX2 + FMA, unless the
/// `CROWD_FORCE_SCALAR` environment knob (any value but `0` or empty)
/// disables the vector leg for the whole process.
pub fn avx2_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        let forced = std::env::var("CROWD_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        !forced
            && std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Force the scalar polynomial leg (or release it) at runtime — the
/// in-process equivalent of `CROWD_FORCE_SCALAR=1`, used by the kernels
/// bench to measure both backends from one binary and by the property
/// tests to prove the dispatcher's scalar leg is the same function.
#[doc(hidden)]
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the vector leg is taken *right now* (detection minus vetoes).
#[inline]
pub fn avx2_active() -> bool {
    avx2_available() && !FORCE_SCALAR.load(Ordering::Relaxed)
}

// Screen window for the vector `exp` core: inside (EXP_LO, EXP_HI) the
// reduction index `k` stays in `[-1021, 1023]`, i.e. the single
// normal-range scale of `scale_by_pow2`, and the result neither
// overflows nor goes subnormal. EXP_LO leaves ~1.4 nats of margin so
// `exp(x - lse)` style callers (lse ≤ max + ln 4) stay inside too.
const EXP_LO: f64 = -700.0;
const EXP_HI: f64 = 709.0;

#[inline(always)]
unsafe fn splat(x: f64) -> __m256d {
    _mm256_set1_pd(x)
}

/// The fdlibm degree-5 rational `exp` core, four lanes at a time.
///
/// # Safety
/// Requires AVX2; every lane of `x` must lie in `(EXP_LO, EXP_HI)`.
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn exp4_core(x: __m256d) -> __m256d {
    // k = round_ties_even(x / ln 2) — matches the scalar leg exactly.
    let k = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(_mm256_mul_pd(
        x,
        splat(fast::INV_LN2),
    ));
    let hi = _mm256_sub_pd(x, _mm256_mul_pd(k, splat(fast::LN2_HI)));
    let lo = _mm256_mul_pd(k, splat(fast::LN2_LO));
    let r = _mm256_sub_pd(hi, lo);
    let rr = _mm256_mul_pd(r, r);
    // P1 + rr·(P2 + rr·(P3 + rr·(P4 + rr·P5))), separate mul/add (no
    // FMA contraction) in the scalar association.
    let mut p = _mm256_add_pd(splat(fast::P4), _mm256_mul_pd(rr, splat(fast::P5)));
    p = _mm256_add_pd(splat(fast::P3), _mm256_mul_pd(rr, p));
    p = _mm256_add_pd(splat(fast::P2), _mm256_mul_pd(rr, p));
    p = _mm256_add_pd(splat(fast::P1), _mm256_mul_pd(rr, p));
    let c = _mm256_sub_pd(r, _mm256_mul_pd(rr, p));
    // y = 1 + ((r·c / (2 − c) − lo) + hi)
    let y = _mm256_add_pd(
        splat(1.0),
        _mm256_add_pd(
            _mm256_sub_pd(
                _mm256_div_pd(_mm256_mul_pd(r, c), _mm256_sub_pd(splat(2.0), c)),
                lo,
            ),
            hi,
        ),
    );
    // y · 2^k via exponent-field surgery. The magic-number trick turns
    // the integral double `k` into an i64 lane: bits(1.5·2⁵² + k) =
    // 0x4338_0000_0000_0000 + k for |k| < 2⁵¹.
    const MAGIC: f64 = 6755399441055744.0; // 1.5 · 2⁵²
    const MAGIC_BITS: i64 = 0x4338_0000_0000_0000;
    let ki = _mm256_sub_epi64(
        _mm256_castpd_si256(_mm256_add_pd(k, splat(MAGIC))),
        _mm256_set1_epi64x(MAGIC_BITS),
    );
    let scale = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
        ki,
        _mm256_set1_epi64x(1023),
    )));
    _mm256_mul_pd(y, scale)
}

/// The fdlibm `ln` core, four lanes at a time.
///
/// # Safety
/// Requires AVX2; every lane of `x` must be normal, positive, finite
/// (`f64::MIN_POSITIVE ≤ x < ∞`).
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn ln4_core(x: __m256d) -> __m256d {
    let bits = _mm256_castpd_si256(x);
    // Exponent field → k; significand rebuilt with a zero exponent.
    let k = _mm256_sub_epi64(_mm256_srli_epi64::<52>(bits), _mm256_set1_epi64x(1023));
    let m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi64x(0x000f_ffff_ffff_ffff)),
        _mm256_set1_epi64x((1023i64) << 52),
    ));
    // if m > √2 { m /= 2; k += 1 } — compare mask is all-ones (−1 as
    // i64) where true, so k − mask is the conditional increment.
    let gt = _mm256_cmp_pd::<{ _CMP_GT_OQ }>(m, splat(std::f64::consts::SQRT_2));
    let m = _mm256_blendv_pd(m, _mm256_mul_pd(m, splat(0.5)), gt);
    let k = _mm256_sub_epi64(k, _mm256_castpd_si256(gt));
    // dk = k as f64, via the same magic-number trick in reverse.
    const MAGIC_BITS: i64 = 0x4338_0000_0000_0000;
    const MAGIC: f64 = 6755399441055744.0;
    let dk = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_add_epi64(k, _mm256_set1_epi64x(MAGIC_BITS))),
        splat(MAGIC),
    );
    let f = _mm256_sub_pd(m, splat(1.0));
    let hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
    let s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
    let z = _mm256_mul_pd(s, s);
    let w = _mm256_mul_pd(z, z);
    // t1 = w·(LG2 + w·(LG4 + w·LG6)); t2 = z·(LG1 + w·(LG3 + w·(LG5 + w·LG7)))
    let t1 = _mm256_mul_pd(
        w,
        _mm256_add_pd(
            splat(fast::LG2),
            _mm256_mul_pd(
                w,
                _mm256_add_pd(splat(fast::LG4), _mm256_mul_pd(w, splat(fast::LG6))),
            ),
        ),
    );
    let t2 = _mm256_mul_pd(
        z,
        _mm256_add_pd(
            splat(fast::LG1),
            _mm256_mul_pd(
                w,
                _mm256_add_pd(
                    splat(fast::LG3),
                    _mm256_mul_pd(
                        w,
                        _mm256_add_pd(splat(fast::LG5), _mm256_mul_pd(w, splat(fast::LG7))),
                    ),
                ),
            ),
        ),
    );
    let r = _mm256_add_pd(t2, t1);
    // dk·LN2_HI − ((hfsq − (s·(hfsq + r) + dk·LN2_LO)) − f)
    _mm256_sub_pd(
        _mm256_mul_pd(dk, splat(fast::LN2_HI)),
        _mm256_sub_pd(
            _mm256_sub_pd(
                hfsq,
                _mm256_add_pd(
                    _mm256_mul_pd(s, _mm256_add_pd(hfsq, r)),
                    _mm256_mul_pd(dk, splat(fast::LN2_LO)),
                ),
            ),
            f,
        ),
    )
}

/// All-lanes mask of `x` the vector `exp` core may touch (NaN fails
/// both ordered compares and lands in the scalar leg).
#[inline(always)]
unsafe fn exp_range_mask(x: __m256d) -> __m256d {
    let lo = _mm256_cmp_pd::<{ _CMP_GT_OQ }>(x, splat(EXP_LO));
    let hi = _mm256_cmp_pd::<{ _CMP_LT_OQ }>(x, splat(EXP_HI));
    _mm256_and_pd(lo, hi)
}

#[inline(always)]
unsafe fn exp_in_range(x: __m256d) -> i32 {
    _mm256_movemask_pd(exp_range_mask(x))
}

/// All-lanes mask of `x` the vector `ln` core may touch: normal,
/// positive, finite. Zero, negatives, subnormals, ±∞ and NaN all fail.
#[inline(always)]
unsafe fn ln_range_mask(x: __m256d) -> __m256d {
    let lo = _mm256_cmp_pd::<{ _CMP_GE_OQ }>(x, splat(f64::MIN_POSITIVE));
    let hi = _mm256_cmp_pd::<{ _CMP_LT_OQ }>(x, splat(f64::INFINITY));
    _mm256_and_pd(lo, hi)
}

#[inline(always)]
unsafe fn ln_in_range(x: __m256d) -> i32 {
    _mm256_movemask_pd(ln_range_mask(x))
}

// The slice drivers process four independent vectors (16 elements) per
// iteration: the cores are long dependency chains ending in a divide,
// and extra in-flight chains let the out-of-order core overlap them
// (two chains ≈ 2×, four ≈ 3× over one). The 4-wide step catches
// 4..=15-element tails; the scalar loop the rest. Which path computed
// an element is unobservable (identical legs).

/// `x[i] ← exp(x[i])` — vector chunks, scalar polynomial for the tail
/// and for any chunk containing an out-of-window lane.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn exp_slice_avx2(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        let a = _mm256_loadu_pd(p);
        let b = _mm256_loadu_pd(p.add(4));
        let c = _mm256_loadu_pd(p.add(8));
        let d = _mm256_loadu_pd(p.add(12));
        let ok = _mm256_and_pd(
            _mm256_and_pd(exp_range_mask(a), exp_range_mask(b)),
            _mm256_and_pd(exp_range_mask(c), exp_range_mask(d)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            _mm256_storeu_pd(p, exp4_core(a));
            _mm256_storeu_pd(p.add(4), exp4_core(b));
            _mm256_storeu_pd(p.add(8), exp4_core(c));
            _mm256_storeu_pd(p.add(12), exp4_core(d));
        } else {
            for x in chunk.iter_mut() {
                *x = fast::exp(*x);
            }
        }
    }
    let rest = chunks.into_remainder();
    let mut tail = rest.chunks_exact_mut(4);
    for chunk in &mut tail {
        let v = _mm256_loadu_pd(chunk.as_ptr());
        if exp_in_range(v) == 0xF {
            _mm256_storeu_pd(chunk.as_mut_ptr(), exp4_core(v));
        } else {
            for x in chunk.iter_mut() {
                *x = fast::exp(*x);
            }
        }
    }
    for x in tail.into_remainder() {
        *x = fast::exp(*x);
    }
}

/// `x[i] ← ln(x[i])` — vector chunks, scalar polynomial elsewhere.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn ln_slice_avx2(xs: &mut [f64]) {
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        let a = _mm256_loadu_pd(p);
        let b = _mm256_loadu_pd(p.add(4));
        let c = _mm256_loadu_pd(p.add(8));
        let d = _mm256_loadu_pd(p.add(12));
        let ok = _mm256_and_pd(
            _mm256_and_pd(ln_range_mask(a), ln_range_mask(b)),
            _mm256_and_pd(ln_range_mask(c), ln_range_mask(d)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            _mm256_storeu_pd(p, ln4_core(a));
            _mm256_storeu_pd(p.add(4), ln4_core(b));
            _mm256_storeu_pd(p.add(8), ln4_core(c));
            _mm256_storeu_pd(p.add(12), ln4_core(d));
        } else {
            for x in chunk.iter_mut() {
                *x = fast::ln(*x);
            }
        }
    }
    let rest = chunks.into_remainder();
    let mut tail = rest.chunks_exact_mut(4);
    for chunk in &mut tail {
        let v = _mm256_loadu_pd(chunk.as_ptr());
        if ln_in_range(v) == 0xF {
            _mm256_storeu_pd(chunk.as_mut_ptr(), ln4_core(v));
        } else {
            for x in chunk.iter_mut() {
                *x = fast::ln(*x);
            }
        }
    }
    for x in tail.into_remainder() {
        *x = fast::ln(*x);
    }
}

/// `x[i] ← ln(max(x[i], eps))` — the clamp makes almost every lane
/// normal/positive, so the range screen only trips on +∞ (and NaN,
/// which `max` absorbs exactly like the scalar `f64::max`).
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn safe_ln_slice_avx2(xs: &mut [f64], eps: f64) {
    let epsv = splat(eps);
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        // maxpd returns the second operand when either is NaN — the
        // same "ignore NaN" answer as Rust's `f64::max(x, eps)`.
        let p = chunk.as_mut_ptr();
        let a = _mm256_max_pd(_mm256_loadu_pd(p), epsv);
        let b = _mm256_max_pd(_mm256_loadu_pd(p.add(4)), epsv);
        let c = _mm256_max_pd(_mm256_loadu_pd(p.add(8)), epsv);
        let d = _mm256_max_pd(_mm256_loadu_pd(p.add(12)), epsv);
        let ok = _mm256_and_pd(
            _mm256_and_pd(ln_range_mask(a), ln_range_mask(b)),
            _mm256_and_pd(ln_range_mask(c), ln_range_mask(d)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            _mm256_storeu_pd(p, ln4_core(a));
            _mm256_storeu_pd(p.add(4), ln4_core(b));
            _mm256_storeu_pd(p.add(8), ln4_core(c));
            _mm256_storeu_pd(p.add(12), ln4_core(d));
        } else {
            for x in chunk.iter_mut() {
                *x = fast::ln(x.max(eps));
            }
        }
    }
    let rest = chunks.into_remainder();
    let mut tail = rest.chunks_exact_mut(4);
    for chunk in &mut tail {
        let v = _mm256_max_pd(_mm256_loadu_pd(chunk.as_ptr()), epsv);
        if ln_in_range(v) == 0xF {
            _mm256_storeu_pd(chunk.as_mut_ptr(), ln4_core(v));
        } else {
            for x in chunk.iter_mut() {
                *x = fast::ln(x.max(eps));
            }
        }
    }
    for x in tail.into_remainder() {
        *x = fast::ln(x.max(eps));
    }
}

/// `x[i] ← σ(x[i])` in the overflow-stable two-sided form: both sides
/// share `e = exp(−|x|)` and pick the numerator (`1` or `e`) by sign,
/// exactly like the scalar kernel's branch.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn sigmoid_slice_avx2(xs: &mut [f64]) {
    #[inline(always)]
    unsafe fn sigmoid4(v: __m256d, neg_abs: __m256d) -> __m256d {
        let e = exp4_core(neg_abs);
        let numer = _mm256_blendv_pd(
            splat(1.0),
            e,
            _mm256_cmp_pd::<{ _CMP_LT_OQ }>(v, splat(0.0)),
        );
        _mm256_div_pd(numer, _mm256_add_pd(splat(1.0), e))
    }
    let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fff_ffff_ffff_ffff));
    let mut chunks = xs.chunks_exact_mut(16);
    for chunk in &mut chunks {
        let p = chunk.as_mut_ptr();
        let a = _mm256_loadu_pd(p);
        let b = _mm256_loadu_pd(p.add(4));
        let c = _mm256_loadu_pd(p.add(8));
        let d = _mm256_loadu_pd(p.add(12));
        let na = _mm256_sub_pd(splat(0.0), _mm256_and_pd(a, abs_mask));
        let nb = _mm256_sub_pd(splat(0.0), _mm256_and_pd(b, abs_mask));
        let nc = _mm256_sub_pd(splat(0.0), _mm256_and_pd(c, abs_mask));
        let nd = _mm256_sub_pd(splat(0.0), _mm256_and_pd(d, abs_mask));
        // −|x| ∈ (−∞, 0]: only deep negatives (or NaN) fail the screen.
        let ok = _mm256_and_pd(
            _mm256_and_pd(exp_range_mask(na), exp_range_mask(nb)),
            _mm256_and_pd(exp_range_mask(nc), exp_range_mask(nd)),
        );
        if _mm256_movemask_pd(ok) == 0xF {
            _mm256_storeu_pd(p, sigmoid4(a, na));
            _mm256_storeu_pd(p.add(4), sigmoid4(b, nb));
            _mm256_storeu_pd(p.add(8), sigmoid4(c, nc));
            _mm256_storeu_pd(p.add(12), sigmoid4(d, nd));
        } else {
            for x in chunk.iter_mut() {
                *x = scalar_sigmoid(*x);
            }
        }
    }
    let rest = chunks.into_remainder();
    let mut tail = rest.chunks_exact_mut(4);
    for chunk in &mut tail {
        let v = _mm256_loadu_pd(chunk.as_ptr());
        let na = _mm256_sub_pd(splat(0.0), _mm256_and_pd(v, abs_mask));
        if exp_in_range(na) == 0xF {
            _mm256_storeu_pd(chunk.as_mut_ptr(), sigmoid4(v, na));
        } else {
            for x in chunk.iter_mut() {
                *x = scalar_sigmoid(*x);
            }
        }
    }
    for x in tail.into_remainder() {
        *x = scalar_sigmoid(*x);
    }
}

#[inline(always)]
fn scalar_sigmoid(x: f64) -> f64 {
    let e = fast::exp(-x.abs());
    if x >= 0.0 {
        1.0 / (1.0 + e)
    } else {
        e / (1.0 + e)
    }
}

/// One 4-lane step of [`super::weighted_log_dot`]: `Σ w_i · ln(max(x_i,
/// eps))` with the lanes' logs vectorised and the four products added
/// in the scalar kernel's left-to-right order, into `acc`. Returns
/// `None` (leaving `acc` meaningless) when a clamped lane is outside
/// the `ln` window — the caller redoes the block scalar.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn weighted_log_dot4(
    weights: &[f64; 4],
    xs: &[f64; 4],
    eps: f64,
    acc: f64,
) -> Option<f64> {
    let v = _mm256_max_pd(_mm256_loadu_pd(xs.as_ptr()), splat(eps));
    if ln_in_range(v) != 0xF {
        return None;
    }
    let l = ln4_core(v);
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), l);
    let mut acc = acc;
    for i in 0..4 {
        acc += weights[i] * lanes[i];
    }
    Some(acc)
}

/// In-register [`super::log_sum_exp`] for a 4-wide row: max fold,
/// vector `exp(x − max)` with the max-lane `1.0` convention, then the
/// scalar kernel's left-to-right summation. Returns `None` when the
/// row is degenerate or leaves the vector window — the caller runs the
/// scalar path, which owns those semantics.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_sum_exp4(xs: &[f64; 4]) -> Option<f64> {
    let v = _mm256_loadu_pd(xs.as_ptr());
    // Sequential max fold, exactly like the scalar `fold(-inf, max)`
    // (keeps f64::max's NaN-ignoring semantics; maxpd differs on NaN).
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return None;
    }
    let maxv = splat(max);
    let d = _mm256_sub_pd(v, maxv);
    if exp_in_range(d) != 0xF {
        return None;
    }
    let e = _mm256_blendv_pd(
        exp4_core(d),
        splat(1.0),
        _mm256_cmp_pd::<{ _CMP_EQ_OQ }>(v, maxv),
    );
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), e);
    // Left-to-right summation order, same as the scalar kernel.
    let sum = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
    Some(max + fast::ln(sum))
}

/// In-register [`super::log_normalize`] for a 4-wide row (the ℓ = 4
/// posterior shape). Returns `false` without touching `xs` when any
/// intermediate leaves the vector window or the row is degenerate —
/// the caller then runs the scalar path, which owns those semantics.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate).
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_normalize4(xs: &mut [f64; 4]) -> bool {
    let Some(lse) = log_sum_exp4(xs) else {
        return false;
    };
    if !lse.is_finite() {
        return false;
    }
    let v = _mm256_loadu_pd(xs.as_ptr());
    let d2 = _mm256_sub_pd(v, splat(lse));
    if exp_in_range(d2) != 0xF {
        return false;
    }
    _mm256_storeu_pd(xs.as_mut_ptr(), exp4_core(d2));
    true
}

// Conservative lower screen for the packed row kernels: a lane at
// distance `d = x − max` contributes `exp(d)` to the row sum and
// `exp(d − ln Σ)` to the normalised output, with `ln Σ ≤ ln 4` for
// rows of width ≤ 4 — so `d > −697` keeps both exponent arguments
// inside `(EXP_LO, EXP_HI)` with margin. NaN/±∞ lanes (and rows whose
// spread exceeds the window) fail the ordered compare and demote that
// row to the scalar kernel, which owns the edge semantics.
const PACKED_LO: f64 = -697.0;

/// Batched [`super::log_normalize`] over `data.len() / L` packed
/// `L`-wide rows (`L ≤ 4`), four rows per iteration.
///
/// The four rows are held **transposed** (column-major: register lane
/// `i` = row `r+i`), so the per-row reductions become plain vertical
/// ops — in particular the `ln` of the four row sums is a single
/// `ln4_core` call, where the per-row kernels spend a scalar `ln`
/// each. This is what makes ℓ-wide posterior softmaxes cheap when a
/// caller has many rows: one dispatch and one `#[target_feature]`
/// region for the whole buffer instead of per row.
///
/// Each row's arithmetic is the scalar kernel's, op for op: sequential
/// max fold (ties and NaN screened so `maxpd` agrees with `f64::max`),
/// `exp(x − max)` with the max-lane `1.0` convention, left-to-right
/// summation, `max + ln(Σ)`, then `exp(x − lse)` — bit-identical
/// output. Rows failing the `PACKED_LO` screen and the `< 4`-row
/// remainder run the per-row scalar kernel.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate). `data.len()` must be a
/// multiple of `L`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_normalize_rows_packed<const L: usize>(data: &mut [f64]) {
    debug_assert!((1..=4).contains(&L));
    debug_assert!(data.len().is_multiple_of(L));
    let rows = data.len() / L;
    let mut r = 0;
    while r + 4 <= rows {
        let base = data.as_ptr().add(r * L);
        // Column gather: c[k] lane i = row (r+i) element k.
        let mut c = [_mm256_setzero_pd(); L];
        for (k, ck) in c.iter_mut().enumerate() {
            *ck = _mm256_set_pd(
                *base.add(3 * L + k),
                *base.add(2 * L + k),
                *base.add(L + k),
                *base.add(k),
            );
        }
        // Sequential max fold per row (vertical across columns). On a
        // NaN lane maxpd propagates the NaN into `d`, failing the
        // ordered screen below — so the rows the vector body keeps are
        // exactly the rows where maxpd and `f64::max` agree.
        let mut maxv = splat(f64::NEG_INFINITY);
        for &ck in c.iter() {
            maxv = _mm256_max_pd(maxv, ck);
        }
        let mut ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let mut d = [_mm256_setzero_pd(); L];
        for (k, dk) in d.iter_mut().enumerate() {
            *dk = _mm256_sub_pd(c[k], maxv);
            ok = _mm256_and_pd(ok, _mm256_cmp_pd::<{ _CMP_GT_OQ }>(*dk, splat(PACKED_LO)));
        }
        // Transposed layout ⇒ the movemask is a per-ROW demotion mask.
        let okbits = _mm256_movemask_pd(ok);
        if okbits != 0 {
            // Σ exp(x − max), max lanes contributing exactly 1.0, in
            // left-to-right lane order (0.0 + e₀ ≡ e₀: the screened
            // terms are all normal positives).
            let mut sum = _mm256_setzero_pd();
            for k in 0..L {
                let e = _mm256_blendv_pd(
                    exp4_core(d[k]),
                    splat(1.0),
                    _mm256_cmp_pd::<{ _CMP_EQ_OQ }>(c[k], maxv),
                );
                sum = _mm256_add_pd(sum, e);
            }
            // Valid row sums lie in [1, 4] — always inside the ln
            // window; demoted rows compute garbage here and are
            // overwritten below.
            let lse = _mm256_add_pd(maxv, ln4_core(sum));
            let out = data.as_mut_ptr().add(r * L);
            for (k, &ck) in c.iter().enumerate() {
                let o = exp4_core(_mm256_sub_pd(ck, lse));
                let mut t = [0.0f64; 4];
                _mm256_storeu_pd(t.as_mut_ptr(), o);
                for (i, &ti) in t.iter().enumerate() {
                    if okbits & (1 << i) != 0 {
                        *out.add(i * L + k) = ti;
                    }
                }
            }
        }
        if okbits != 0xF {
            for i in 0..4 {
                if okbits & (1 << i) == 0 {
                    let row = std::slice::from_raw_parts_mut(data.as_mut_ptr().add((r + i) * L), L);
                    super::log_normalize_scalar(row);
                }
            }
        }
        r += 4;
    }
    for row in data[r * L..].chunks_exact_mut(L) {
        super::log_normalize_scalar(row);
    }
}

/// Batched [`super::log_sum_exp`] over `data.len() / L` packed `L`-wide
/// rows: `out[i] ← lse(row i)`. Same transposed four-rows-per-iteration
/// scheme and screens as [`log_normalize_rows_packed`], minus the final
/// normalise pass; demoted and remainder rows run the per-row scalar
/// kernel.
///
/// # Safety
/// Requires AVX2 (+FMA per the detection gate). `data.len()` must be a
/// multiple of `L` and `out.len() == data.len() / L`.
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn log_sum_exp_rows_packed<const L: usize>(data: &[f64], out: &mut [f64]) {
    debug_assert!((1..=4).contains(&L));
    debug_assert!(data.len().is_multiple_of(L));
    let rows = data.len() / L;
    debug_assert_eq!(out.len(), rows);
    let mut r = 0;
    while r + 4 <= rows {
        let base = data.as_ptr().add(r * L);
        let mut c = [_mm256_setzero_pd(); L];
        for (k, ck) in c.iter_mut().enumerate() {
            *ck = _mm256_set_pd(
                *base.add(3 * L + k),
                *base.add(2 * L + k),
                *base.add(L + k),
                *base.add(k),
            );
        }
        let mut maxv = splat(f64::NEG_INFINITY);
        for &ck in c.iter() {
            maxv = _mm256_max_pd(maxv, ck);
        }
        let mut ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let mut d = [_mm256_setzero_pd(); L];
        for (k, dk) in d.iter_mut().enumerate() {
            *dk = _mm256_sub_pd(c[k], maxv);
            ok = _mm256_and_pd(ok, _mm256_cmp_pd::<{ _CMP_GT_OQ }>(*dk, splat(PACKED_LO)));
        }
        let okbits = _mm256_movemask_pd(ok);
        if okbits != 0 {
            let mut sum = _mm256_setzero_pd();
            for k in 0..L {
                let e = _mm256_blendv_pd(
                    exp4_core(d[k]),
                    splat(1.0),
                    _mm256_cmp_pd::<{ _CMP_EQ_OQ }>(c[k], maxv),
                );
                sum = _mm256_add_pd(sum, e);
            }
            let lse = _mm256_add_pd(maxv, ln4_core(sum));
            let mut t = [0.0f64; 4];
            _mm256_storeu_pd(t.as_mut_ptr(), lse);
            for (i, &ti) in t.iter().enumerate() {
                if okbits & (1 << i) != 0 {
                    out[r + i] = ti;
                }
            }
        }
        if okbits != 0xF {
            for i in 0..4 {
                if okbits & (1 << i) == 0 {
                    out[r + i] = super::log_sum_exp_scalar(&data[(r + i) * L..(r + i) * L + L]);
                }
            }
        }
        r += 4;
    }
    while r < rows {
        out[r] = super::log_sum_exp_scalar(&data[r * L..r * L + L]);
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::super::ulp_diff;
    use super::*;

    // The exhaustive adversarial comparisons live in
    // `tests/kernel_properties.rs`; these unit tests pin the cores
    // directly so a broken intrinsic fails close to home.

    fn have_avx2() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    #[test]
    fn vector_exp_matches_scalar_polynomial_bitwise() {
        if !have_avx2() {
            return;
        }
        let mut xs: Vec<f64> = (-3000..3000).map(|i| i as f64 * 0.2345).collect();
        xs.extend([0.0, -0.0, 1.0, -1.0, 699.9, -699.9, 709.7, -745.0, f64::NAN]);
        let want: Vec<f64> = xs.iter().map(|&x| fast::exp(x)).collect();
        let mut got = xs.clone();
        unsafe { exp_slice_avx2(&mut got) };
        for ((&x, &w), &g) in xs.iter().zip(&want).zip(&got) {
            assert_eq!(ulp_diff(w, g), 0, "exp({x}): scalar {w:?} vs vector {g:?}");
        }
    }

    #[test]
    fn vector_ln_matches_scalar_polynomial_bitwise() {
        if !have_avx2() {
            return;
        }
        let mut xs: Vec<f64> = (1..6000).map(|i| i as f64 * 0.137).collect();
        xs.extend([1e-300, 1e-12, 1.0, 1e300, f64::MIN_POSITIVE, 5e-324, 0.0]);
        let want: Vec<f64> = xs.iter().map(|&x| fast::ln(x)).collect();
        let mut got = xs.clone();
        unsafe { ln_slice_avx2(&mut got) };
        for ((&x, &w), &g) in xs.iter().zip(&want).zip(&got) {
            assert_eq!(ulp_diff(w, g), 0, "ln({x}): scalar {w:?} vs vector {g:?}");
        }
    }

    /// `log_normalize` over the polynomial backend, open-coded — the
    /// function `log_normalize4` must equal bitwise (the dispatcher
    /// only routes here under `fast-math`, where `kernels::exp` is
    /// `fast::exp`; this reference works in every build).
    fn fast_log_normalize_reference(xs: &mut [f64; 4]) {
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = xs
            .iter()
            .map(|&x| if x == max { 1.0 } else { fast::exp(x - max) })
            .sum();
        let lse = max + fast::ln(sum);
        for x in xs.iter_mut() {
            *x = fast::exp(*x - lse);
        }
    }

    #[test]
    fn log_normalize4_matches_scalar_kernel() {
        if !have_avx2() {
            return;
        }
        for row in [
            [0.1, -0.4, 2.0, -3.0],
            [-690.0, -690.5, -691.0, -689.5],
            [0.0, 0.0, 0.0, 0.0],
        ] {
            let mut want = row;
            fast_log_normalize_reference(&mut want);
            let mut got = row;
            assert!(unsafe { log_normalize4(&mut got) }, "row {row:?} bailed");
            assert_eq!(want.map(f64::to_bits), got.map(f64::to_bits), "row {row:?}");
        }
    }

    /// Adversarial packed-row buffer for a given width: ordinary rows
    /// mixed with rows that must demote (NaN, ±∞, all `-inf`, spread
    /// beyond the window), at every row count so group/remainder
    /// boundaries are all exercised.
    #[cfg(feature = "fast-math")]
    fn packed_fixture(l: usize, rows: usize) -> Vec<f64> {
        let pool = [
            0.3,
            -2.0,
            1.7,
            -0.4,
            f64::NAN,
            f64::NEG_INFINITY,
            650.0,
            -650.0,
            0.0,
            -0.0,
            f64::INFINITY,
            -27.6,
        ];
        (0..rows * l)
            .map(|i| pool[(i * 7 + i / l) % pool.len()])
            .collect()
    }

    /// The packed-row kernels' bit-identity contract is *to the scalar
    /// kernels as built under `fast-math`* (where the scalar leg is the
    /// same polynomial the vector cores replicate); the default build
    /// never reaches them (the flat dispatchers are feature-gated), so
    /// there the libm-backed scalar kernels legitimately differ by ULPs
    /// and the comparison is meaningless.
    #[cfg(feature = "fast-math")]
    #[test]
    fn packed_rows_match_scalar_kernel_bitwise() {
        if !have_avx2() {
            return;
        }
        for l in 1..=4usize {
            for rows in 0..=13usize {
                let data = packed_fixture(l, rows);
                let mut want = data.clone();
                for row in want.chunks_exact_mut(l) {
                    super::super::log_normalize_scalar(row);
                }
                let mut got = data.clone();
                unsafe {
                    match l {
                        1 => log_normalize_rows_packed::<1>(&mut got),
                        2 => log_normalize_rows_packed::<2>(&mut got),
                        3 => log_normalize_rows_packed::<3>(&mut got),
                        _ => log_normalize_rows_packed::<4>(&mut got),
                    }
                }
                for (i, (&w, &g)) in want.iter().zip(&got).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "normalize l={l} rows={rows} elem {i}: {w:?} vs {g:?}"
                    );
                }

                let want_lse: Vec<f64> = data
                    .chunks_exact(l)
                    .map(super::super::log_sum_exp_scalar)
                    .collect();
                let mut got_lse = vec![0.0f64; rows];
                unsafe {
                    match l {
                        1 => log_sum_exp_rows_packed::<1>(&data, &mut got_lse),
                        2 => log_sum_exp_rows_packed::<2>(&data, &mut got_lse),
                        3 => log_sum_exp_rows_packed::<3>(&data, &mut got_lse),
                        _ => log_sum_exp_rows_packed::<4>(&data, &mut got_lse),
                    }
                }
                for (i, (&w, &g)) in want_lse.iter().zip(&got_lse).enumerate() {
                    assert_eq!(
                        w.to_bits(),
                        g.to_bits(),
                        "lse l={l} rows={rows} row {i}: {w:?} vs {g:?}"
                    );
                }
            }
        }
    }
}
